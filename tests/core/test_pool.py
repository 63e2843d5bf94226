"""Worker-process fan-out: order, failures, fallback and payload transport.

Start-method coverage: ``process_map`` picks fork where the platform
has it; tests that need a given method replace the module's context
choice with a fake (:func:`use_start_method`), since spawn is the path
macOS/Windows users take and the one where the payload is pickled.
"""

import multiprocessing
import os

import pytest

from repro import obs
from repro.core import pool
from repro.core.pool import (
    FALLBACK_ERRORS,
    PoolFallbackWarning,
    note_fallback,
    process_map,
)
from repro.errors import ParameterError, WorkerCrashError


def use_start_method(monkeypatch, method):
    """Make ``process_map`` start its workers with ``method``."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} on this platform")
    monkeypatch.setattr(
        pool, "_context", lambda: multiprocessing.get_context(method)
    )


# ----------------------------------------------------------------------
# Task functions (module-level so they pickle by reference).
# ----------------------------------------------------------------------


def _offset_square(payload, item):
    return payload + item * item


def _boom_on_three(payload, item):
    if item == 3:
        raise ValueError("boom-3")
    return item


def _die_on_two(payload, item):
    if item == 2:
        os._exit(17)
    return item


def _worker_pid(payload, item):
    return os.getpid()


class _PickleCounter:
    """Counts (parent-side) pickles of itself via a class attribute."""

    pickles = 0

    def __getstate__(self):
        type(self).pickles += 1
        return {}

    def __setstate__(self, state):
        pass


class TestConstruction:
    def test_rejects_nonpositive_jobs(self):
        for jobs in (0, -3):
            with pytest.raises(ParameterError, match="jobs must be >= 1"):
                process_map(_offset_square, 0, [1], jobs)

    def test_default_start_method_is_available(self):
        assert pool._context().get_start_method() in (
            multiprocessing.get_all_start_methods()
        )


class TestDispatch:
    def test_map_preserves_item_order(self):
        assert process_map(_offset_square, 100, range(20), 2) == [
            100 + i * i for i in range(20)
        ]

    def test_empty_items(self):
        assert process_map(_offset_square, 0, [], 2) == []

    def test_tasks_spread_across_workers(self):
        pids = set(process_map(_worker_pid, None, range(16), 2))
        assert os.getpid() not in pids


class TestBroadcast:
    """The payload reaches each worker once, never once per task."""

    def test_payload_reaches_tasks(self):
        assert process_map(_offset_square, 100, [0, 5, 9], 2) == [
            100, 125, 181,
        ]

    def test_fork_staged_broadcast_is_never_pickled(self, monkeypatch):
        use_start_method(monkeypatch, "fork")
        _PickleCounter.pickles = 0
        process_map(_worker_pid, _PickleCounter(), range(8), 2)
        assert _PickleCounter.pickles == 0

    def test_spawn_broadcast_pickles_once_per_worker_not_per_task(
        self, monkeypatch
    ):
        use_start_method(monkeypatch, "spawn")
        # All 12 tasks are queued before either worker is up, so both
        # workers start, and the payload is pickled once for each.
        _PickleCounter.pickles = 0
        process_map(_worker_pid, _PickleCounter(), range(12), 2)
        assert _PickleCounter.pickles == 2


class TestFailureContainment:
    def test_poisoned_task_fails_only_itself(self):
        with pytest.raises(ValueError, match="boom-3"):
            process_map(_boom_on_three, None, range(6), 2)
        # The next call is unaffected.
        assert process_map(_offset_square, 0, range(4), 2) == [0, 1, 4, 9]

    def test_worker_crash_raises_and_next_call_works(self):
        with pytest.raises(WorkerCrashError):
            process_map(_die_on_two, None, range(6), 2)
        assert process_map(_offset_square, 0, range(4), 2) == [0, 1, 4, 9]

    def test_crash_error_is_a_fallback_error(self):
        assert issubclass(WorkerCrashError, FALLBACK_ERRORS)


class TestFallbackVisibility:
    def test_note_fallback_counts_and_warns(self):
        counter = obs.REGISTRY.counter(
            "pool.fallback",
            help="parallel runs degraded to the serial path",
        )
        before = counter.value
        with pytest.warns(PoolFallbackWarning, match="sim.replicate"):
            note_fallback("sim.replicate", OSError("no forking today"))
        assert counter.value == before + 1


def _run_all(jobs):
    from repro.experiments.runner import run_all

    run_all(quick=True, jobs=jobs, experiments=["table-1"])


def _run_replications(jobs):
    from repro.mapping.strategies import identity_mapping
    from repro.sim.config import SimulationConfig
    from repro.sim.replicate import run_replications
    from repro.topology.graphs import torus_neighbor_graph
    from repro.workload.synthetic import build_programs

    config = SimulationConfig(
        radix=4, contexts=1,
        warmup_network_cycles=50, measure_network_cycles=100,
    )
    programs = build_programs(
        torus_neighbor_graph(4, 2), 1,
        config.compute_cycles, config.compute_jitter,
    )
    run_replications(
        config, identity_mapping(16), programs, [1], jobs=jobs
    )


@pytest.mark.parametrize("jobs", [0, -3])
@pytest.mark.parametrize(
    "site, error",
    [
        (_run_all, ParameterError),
        (_run_replications, ParameterError),
    ],
    ids=["run_all", "run_replications"],
)
def test_every_jobs_site_rejects_jobs_below_one(site, error, jobs):
    with pytest.raises(error, match="jobs must be >= 1"):
        site(jobs)
