"""Experiment registry and batch runner.

Maps experiment identifiers (``figure-3`` .. ``figure-8``, ``table-1``,
and the ablations) to their drivers.  ``repro-locality run <id>`` and the
benchmarks both resolve experiments through this registry, so the set of
reproducible artifacts lives in exactly one place.  Compact aliases
(``fig3``, ``table1``) resolve to their canonical ids via
:func:`resolve_experiment_id`.

``run_all`` can fan experiments out over worker processes
(``repro-locality run --all --jobs N``; :mod:`repro.core.pool`).  Each
experiment is pure — drivers take only the ``quick`` flag and share no
mutable state — so per-process isolation changes nothing about the
results, and the runner reassembles them in registry order regardless
of completion order.

With observability on (:mod:`repro.obs`), every experiment runs inside
an ``experiment`` span and ships its span records back on
``result.obs`` — including from worker processes, whose spans and solver
counters the parent merges so a ``--jobs N`` run yields one combined
trace and manifest equivalent to the serial run's.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.core.pool import FALLBACK_ERRORS, note_fallback, process_map
from repro.errors import ParameterError
from repro.experiments import (
    ablations,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    locality_scale,
    locality_search,
    organizations,
    scaling_sim,
    table1,
    ucl_nucl,
)
from repro.experiments.result import ExperimentResult
from repro.obs.metrics import LATENCY_BUCKETS_SECONDS

__all__ = [
    "REGISTRY",
    "TELEMETRY_RUNNERS",
    "experiment_ids",
    "resolve_experiment_id",
    "run_experiment",
    "run_all",
]

Runner = Callable[[bool], ExperimentResult]

REGISTRY: Dict[str, Runner] = {
    "figure-3": fig3.run,
    "figure-4": fig4.run,
    "figure-5": fig5.run,
    "figure-6": fig6.run,
    "figure-7": fig7.run,
    "figure-8": fig8.run,
    "table-1": table1.run,
    "ucl-vs-nucl": ucl_nucl.run,
    "locality-search": locality_search.run,
    "locality-scale": locality_scale.run,
    "organizations": organizations.run,
    "scaling-sim": scaling_sim.run,
    "ablation-feedback": ablations.run_feedback,
    "ablation-clamp": ablations.run_clamp,
    "ablation-node-channel": ablations.run_node_channel,
    "ablation-dimension": ablations.run_dimension,
    "ablation-buffering": ablations.run_buffering,
    "ablation-uniformity": ablations.run_uniformity,
}


#: Experiments whose drivers accept a ``telemetry`` keyword — fabric
#: instrumentation threaded through their simulator replications (see
#: :mod:`repro.sim.telemetry`).  ``repro-locality run --telemetry``
#: resolves against this set.
TELEMETRY_RUNNERS = frozenset({"scaling-sim"})


def experiment_ids() -> List[str]:
    """All known experiment identifiers, paper artifacts first."""
    return list(REGISTRY)


def _normalize(identifier: str) -> str:
    return (
        identifier.strip()
        .lower()
        .replace("figure", "fig")
        .replace("-", "")
        .replace("_", "")
    )


def resolve_experiment_id(identifier: str) -> str:
    """Map compact aliases (``fig3``, ``table1``) to canonical ids.

    Exact registry ids pass through unchanged; unknown identifiers are
    returned as-is so the caller's usual unknown-experiment error (or
    argparse ``choices`` check) still fires with the original spelling.
    """
    if identifier in REGISTRY:
        return identifier
    aliases = {_normalize(known): known for known in REGISTRY}
    return aliases.get(_normalize(identifier), identifier)


def _perf_counters() -> Dict[str, int]:
    """The solver's ``perf.*`` registry counters, keyed without the
    prefix (the names ``ExperimentResult.perf`` reports them under)."""
    return {
        name[len("perf."):]: metric["value"]
        for name, metric in obs.REGISTRY.snapshot().items()
        if name.startswith("perf.")
    }


def _perf_delta(before: Dict[str, int]) -> Dict[str, int]:
    """Counter increments since ``before`` (a prior :func:`_perf_counters`)."""
    return {
        name: value - before.get(name, 0)
        for name, value in _perf_counters().items()
    }


def run_experiment(
    identifier: str, quick: bool = False, telemetry: bool = False
) -> ExperimentResult:
    """Run one experiment by id, attaching perf diagnostics to the result.

    Counters are snapshotted before the driver and the delta is computed
    on *every* exit path, so a raising experiment still accounts for the
    solver work it did: the partial delta (with a ``failed`` marker and
    wall time) is attached to the exception as ``partial_perf`` for the
    CLI to report.  ``telemetry`` asks the driver to instrument its
    simulator replications with per-channel fabric telemetry; only the
    experiments in :data:`TELEMETRY_RUNNERS` support it.
    """
    identifier = resolve_experiment_id(identifier)
    runner = REGISTRY.get(identifier)
    if runner is None:
        known = ", ".join(REGISTRY)
        raise ParameterError(
            f"unknown experiment {identifier!r}; known: {known}"
        )
    if telemetry and identifier not in TELEMETRY_RUNNERS:
        supported = ", ".join(sorted(TELEMETRY_RUNNERS))
        raise ParameterError(
            f"experiment {identifier!r} does not support --telemetry; "
            f"supported: {supported}"
        )
    collecting = obs.is_enabled()
    mark = obs.trace_mark() if collecting else 0
    before = _perf_counters()
    started = time.perf_counter()
    result: Optional[ExperimentResult] = None
    try:
        with obs.span("experiment", experiment=identifier, quick=bool(quick)):
            if telemetry:
                result = runner(quick, telemetry=True)
            else:
                result = runner(quick)
    except BaseException as exc:
        elapsed = time.perf_counter() - started
        exc.partial_perf = dict(
            _perf_delta(before), wall_seconds=elapsed, failed=True
        )
        raise
    elapsed = time.perf_counter() - started
    result.perf = dict(_perf_delta(before), wall_seconds=elapsed)
    if collecting:
        obs.REGISTRY.histogram(
            "experiment.wall_seconds",
            LATENCY_BUCKETS_SECONDS,
            help="per-experiment wall time",
        ).observe(elapsed)
        result.obs = {"pid": os.getpid(), "spans": obs.spans_since(mark)}
    return result


def _run_one(quick: bool, task) -> ExperimentResult:
    """Worker task: run one experiment in a worker process.

    ``collect_obs`` mirrors the parent's observability switch into the
    worker, so span records ride back on the result for merging.
    """
    identifier, collect_obs = task
    if collect_obs:
        # Fork-started workers inherit the parent's trace buffer —
        # including its pid stamp and any spans recorded before the
        # fork — and a worker runs several experiments.  Start from a
        # fresh buffer so this worker's spans carry its own pid and
        # nothing is shipped back twice.
        obs.enable()
        obs.reset()
    return run_experiment(identifier, quick)


def _merge_worker_observability(results: Sequence[ExperimentResult]) -> None:
    """Fold worker processes' spans and counters into this process's state."""
    own_pid = os.getpid()
    obs.ingest_worker_payloads(result.obs for result in results)
    names = _perf_counters()
    for result in results:
        if not result.obs or result.obs.get("pid") == own_pid:
            continue
        obs.REGISTRY.merge_counters(
            {
                f"perf.{name}": value
                for name, value in result.perf.items()
                if name in names
            }
        )


def run_all(
    quick: bool = False,
    jobs: int = 1,
    experiments: Optional[Sequence[str]] = None,
) -> List[ExperimentResult]:
    """Run every registered experiment (or the ``experiments`` subset).

    Results come back in registry order.  With ``jobs > 1`` the
    experiments run across that many worker processes, one experiment
    per task; results are identical to a serial run (each driver
    depends only on its arguments), and when observability is on the
    workers' spans and counters are merged into the parent so traces
    and manifests cover the whole campaign.  Falls back to the serial
    path — recorded on the ``pool.fallback`` counter and warned — when
    the platform cannot start worker processes.  ``jobs < 1`` raises
    :class:`~repro.errors.ParameterError`.
    """
    if experiments is None:
        identifiers = experiment_ids()
    else:
        identifiers = [resolve_experiment_id(e) for e in experiments]
        unknown = [i for i in identifiers if i not in REGISTRY]
        if unknown:
            raise ParameterError(
                f"unknown experiments {unknown}; known: {experiment_ids()}"
            )
    if jobs != 1:
        collect_obs = obs.is_enabled()
        try:
            results = process_map(
                _run_one,
                quick,
                [(identifier, collect_obs) for identifier in identifiers],
                jobs,
            )
        except FALLBACK_ERRORS as error:
            note_fallback("experiments.run_all", error)
        else:
            if collect_obs:
                _merge_worker_observability(results)
            return results
    return [run_experiment(identifier, quick) for identifier in identifiers]
