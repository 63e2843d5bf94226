"""Thread-count invariance of the compiled core's replication dispatch.

``repro.sim.batch._dispatch`` runs every (machine, replication) unit on
``thread_count()`` threads.  Results must not depend on that count: the
summaries, suite points and replication aggregates below are compared
at one thread, two threads and more threads than there are units.  A
core error must surface only after every unit has joined, as the
lowest failing replication's error, with the same type at every count.
"""

import copy
import sys
import time
import weakref

import pytest

from repro.analysis.validation import simulate_mapping_suite
from repro.core import pool
from repro.errors import ProtocolError, SimulationError
from repro.mapping.strategies import random_mapping
from repro.sim import batch as batch_module
from repro.sim import batchcore
from repro.sim.batch import BatchMachine, run_batch, run_batches
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.sim.replicate import default_seeds, run_replications
from repro.topology.graphs import torus_neighbor_graph
from repro.workload.synthetic import build_programs

pytestmark = pytest.mark.skipif(
    batchcore.load() is None,
    reason=f"batch core unavailable: {batchcore.load_failure()}",
)

#: One thread (the plain loop), two, and more than any call's units.
THREADS = (1, 2, 16)


@pytest.fixture
def executors(monkeypatch):
    """Record the worker count of every thread pool the dispatch opens."""
    opened = []
    executor = batch_module.ThreadPoolExecutor

    def recording(max_workers):
        opened.append(max_workers)
        return executor(max_workers=max_workers)

    monkeypatch.setattr(batch_module, "ThreadPoolExecutor", recording)
    return opened


def use_threads(monkeypatch, count):
    monkeypatch.setattr(batch_module, "thread_count", lambda: count)


def setup(contexts=2, radix=4, warmup=200, measure=600):
    config = SimulationConfig(
        radix=radix, contexts=contexts,
        warmup_network_cycles=warmup, measure_network_cycles=measure,
    )
    graph = torus_neighbor_graph(radix, 2)
    programs = build_programs(
        graph, contexts, config.compute_cycles, config.compute_jitter
    )
    return config, random_mapping(config.node_count, seed=radix), programs


def as_dicts(summaries):
    return [summary.as_dict() for summary in summaries]


class TestInvariance:
    def test_run_batch_eight_replications(self, monkeypatch, executors):
        config, mapping, programs = setup()
        seeds = default_seeds(config.seed, 8)
        runs = {}
        for count in THREADS:
            use_threads(monkeypatch, count)
            runs[count] = as_dicts(run_batch(config, mapping, programs, seeds))
        assert runs[2] == runs[1] and runs[16] == runs[1]
        # The one-thread dispatch opens no pool.
        assert executors == [2, 16]
        serial = Machine(
            config.with_seed(seeds[-1]), mapping, copy.deepcopy(programs)
        ).run()
        assert runs[1][-1] == serial.as_dict()

    def test_mapping_suite_points(self, monkeypatch, executors):
        config = SimulationConfig(
            radix=8, contexts=2, compute_cycles=8,
            warmup_network_cycles=100, measure_network_cycles=400,
        )
        points = {}
        for count in THREADS:
            use_threads(monkeypatch, count)
            points[count] = [
                (point.name, point.distance, point.summary.as_dict())
                for point in simulate_mapping_suite(config)
            ]
        assert len(points[1]) == 9
        assert points[2] == points[1] and points[16] == points[1]
        assert executors == [2, 16]

    def test_replication_aggregates(self, monkeypatch):
        config, mapping, programs = setup()
        seeds = default_seeds(config.seed, 8)
        results = {}
        for count in THREADS:
            use_threads(monkeypatch, count)
            result = run_replications(
                config, mapping, programs, seeds=seeds, batch=4
            )
            results[count] = (as_dicts(result.summaries), result.aggregates)
        assert results[2] == results[1] and results[16] == results[1]

    def test_many_threads_fast_switching(self, monkeypatch):
        # More threads than CPUs, switching as often as the interpreter
        # allows: state shared between replications would lose updates
        # and move a summary.
        config, mapping, programs = setup(radix=8, warmup=500, measure=2000)
        seeds = default_seeds(config.seed, 16)
        use_threads(monkeypatch, 1)
        want = as_dicts(run_batch(config, mapping, programs, seeds))
        use_threads(monkeypatch, 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(4):
                got = as_dicts(run_batch(config, mapping, programs, seeds))
                assert got == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("count", THREADS)
    def test_pipeline_keeps_few_machines_alive(self, monkeypatch, count):
        # At most one machine per thread, plus the one being built.
        use_threads(monkeypatch, count)
        config, mapping, programs = setup()
        alive = weakref.WeakSet()
        peak = []
        init = BatchMachine.__init__

        def tracked(machine, *args, **kwargs):
            init(machine, *args, **kwargs)
            alive.add(machine)
            peak.append(len(alive))

        monkeypatch.setattr(BatchMachine, "__init__", tracked)
        mappings = [random_mapping(16, seed=seed) for seed in range(6)]
        assert len(run_batches(config, mappings, programs, [config.seed])) == 6
        assert len(peak) == 6
        assert max(peak) <= min(count + 1, 6)


class _FailingCore:
    """Stands in for the core's ``lib``: forwards every call, but the
    listed replications flag ``code`` on their first ``bc_advance``,
    and replication 0's measured window is slow, so a dispatch that
    raised before joining would miss its last call."""

    def __init__(self, ffi, lib, failing, code):
        self._lib = lib
        self.failing = set(failing)
        self.code = code
        self.advances = {}
        self.messages = {
            index: ffi.new("char[]", f"flagged {index}".encode())
            for index in self.failing
        }

    def bc_advance(self, core, index, stop):
        self.advances[index] = self.advances.get(index, 0) + 1
        if index in self.failing:
            return -1
        if index == 0 and self.advances[index] == 2:
            time.sleep(0.05)
        return self._lib.bc_advance(core, index, stop)

    def bc_errcode(self, core, index):
        return self.code if index in self.failing else 0

    def bc_errmsg(self, core, index):
        return self.messages[index]

    def __getattr__(self, name):
        return getattr(self._lib, name)


class TestCoreErrors:
    @pytest.mark.parametrize("count", THREADS)
    @pytest.mark.parametrize(
        "code,error", [(2, ProtocolError), (1, SimulationError)]
    )
    def test_lowest_failing_replication_raises_after_join(
        self, monkeypatch, count, code, error
    ):
        use_threads(monkeypatch, count)
        config, mapping, programs = setup()
        machine = BatchMachine(
            config, mapping, programs, default_seeds(config.seed, 4)
        )
        fake = _FailingCore(machine._ffi, machine._lib, (3, 1), code)
        machine._lib = fake
        with pytest.raises(error, match="replication 1: flagged 1") as raised:
            machine.run()
        if code == 1:
            assert type(raised.value) is SimulationError
        # Every unit ran to its end before the error surfaced.
        assert fake.advances == {0: 2, 1: 1, 2: 2, 3: 1}


def _worker_threads(payload, item):
    return pool.thread_count()


class TestNoOversubscription:
    def test_process_map_workers_run_one_thread(self):
        assert pool.thread_count() >= 1
        assert pool.process_map(_worker_threads, None, [0, 1], jobs=2) == [1, 1]

    def test_in_process_jobs_keep_the_threads(self):
        # jobs=1 runs in this process, which owns its CPUs.
        expected = pool.thread_count()
        assert pool.process_map(_worker_threads, None, [0], jobs=1) == [expected]

    def test_affinity_sets_the_count(self, monkeypatch):
        monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        assert pool.thread_count() == 3
        monkeypatch.delattr(pool.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(pool.os, "cpu_count", lambda: 6)
        assert pool.thread_count() == 6
