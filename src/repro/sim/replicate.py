"""Parallel multi-seed replication of simulator runs.

Every simulated figure used to rest on a single seed.  This module runs
the same (config, mapping, programs) machine under a list of root seeds
— serially, fanned out over the persistent warm worker pool
(:mod:`repro.core.pool`), and/or packed into batches (``batch=R``
routes contiguous seed chunks through :func:`repro.sim.batch.run_batch`,
one lockstep pass per chunk where the compiled core applies) — and
aggregates each
:class:`~repro.sim.stats.MeasurementSummary` metric into mean / sample
standard deviation / 95% confidence interval, so model-vs-sim
comparisons carry error bars instead of point estimates.

Determinism contract: for a fixed seed list the aggregates (and the
per-seed summaries) are identical regardless of ``jobs`` and of pool
reuse.  Each replication is an isolated machine built from
``config.with_seed(seed)`` with its own deep copy of the programs (both
the serial path and the pool worker copy explicitly — warm workers
reuse the broadcast payload across tasks, so nothing may mutate it),
results are reassembled in seed order whatever the completion order,
and the statistics are computed with plain float arithmetic over that
order.

Seed policy: :func:`default_seeds` enumerates ``root, root+1, ...`` so
the first replication of a campaign is exactly the old single-seed run —
adding error bars never changes existing point estimates.  Every
processor stream inside a replication derives from that replication's
seed via ``numpy.random.SeedSequence`` (see :mod:`repro.sim.processor`),
and the RNG provenance rides on the result for run manifests.

With observability enabled the whole sweep runs under a ``replicate``
span, each replication inside a ``replication`` span; pool workers ship
their span records back on the result tuple and the parent merges them
(:func:`repro.obs.ingest_worker_payloads`), so a ``jobs=N`` trace is
equivalent to the serial one.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.pool import (
    FALLBACK_ERRORS,
    WorkerPool,
    chunk_tasks,
    get_pool,
    note_fallback,
)
from repro.errors import ParameterError
from repro.mapping.base import Mapping
from repro.sim.batch import run_batch
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.sim.stats import MeasurementSummary
from repro.sim.telemetry import TelemetryConfig, merge_snapshots
from repro.workload.base import ThreadProgram

__all__ = [
    "MetricAggregate",
    "ReplicationResult",
    "aggregate_summaries",
    "default_seeds",
    "run_replications",
]


@dataclass(frozen=True)
class MetricAggregate:
    """Mean / spread of one summary metric across replications.

    ``std`` is the sample standard deviation (ddof=1; 0.0 with a single
    replication) and ``ci95`` the normal-approximation half-width
    ``1.96 * std / sqrt(n)``.  ``n`` counts replications whose window
    produced the metric (``None`` values are skipped); ``values`` keeps
    the per-seed points, in seed order, for plotting.
    """

    metric: str
    mean: float
    std: float
    ci95: float
    n: int
    values: Tuple[float, ...]


@dataclass
class ReplicationResult:
    """Everything ``run_replications`` measured.

    ``summaries[i]`` is the full per-seed summary for ``seeds[i]``;
    ``aggregates`` maps metric name to its cross-seed statistics.
    """

    seeds: Tuple[int, ...]
    summaries: List[MeasurementSummary]
    aggregates: Dict[str, MetricAggregate]
    rng: Dict[str, object]

    def mean(self, metric: str) -> Optional[float]:
        aggregate = self.aggregates.get(metric)
        return aggregate.mean if aggregate else None

    def ci95(self, metric: str) -> Optional[float]:
        aggregate = self.aggregates.get(metric)
        return aggregate.ci95 if aggregate else None

    def telemetry_snapshots(self) -> List[Dict]:
        """Per-seed telemetry snapshots (empty if telemetry was off)."""
        return [
            summary.telemetry
            for summary in self.summaries
            if summary.telemetry is not None
        ]

    def merged_telemetry(self) -> Optional[Dict]:
        """All replications' telemetry as one merged snapshot, or None."""
        snapshots = self.telemetry_snapshots()
        if not snapshots:
            return None
        return merge_snapshots(snapshots)


def default_seeds(root_seed: int, count: int) -> Tuple[int, ...]:
    """``root, root+1, ...`` — replication 0 is the old single-seed run."""
    if count < 1:
        raise ParameterError(f"need at least one replication; got {count}")
    return tuple(root_seed + i for i in range(count))


def aggregate_summaries(
    summaries: Sequence[MeasurementSummary],
) -> Dict[str, MetricAggregate]:
    """Cross-replication statistics for every numeric summary metric."""
    if not summaries:
        raise ParameterError("no summaries to aggregate")
    aggregates: Dict[str, MetricAggregate] = {}
    for metric in summaries[0].as_dict():
        values = tuple(
            float(value)
            for summary in summaries
            if (value := summary.as_dict()[metric]) is not None
        )
        if not values:
            continue
        n = len(values)
        mean = sum(values) / n
        if n > 1:
            variance = sum((v - mean) ** 2 for v in values) / (n - 1)
            std = math.sqrt(variance)
        else:
            std = 0.0
        aggregates[metric] = MetricAggregate(
            metric=metric,
            mean=mean,
            std=std,
            ci95=1.96 * std / math.sqrt(n),
            n=n,
            values=values,
        )
    return aggregates


def _run_single(arguments) -> Tuple[MeasurementSummary, Optional[Dict]]:
    """One seeded machine run.

    Module-level so it pickles; takes one tuple so it maps cleanly.
    Callers must hand this their own copy of mapping and programs
    (programs carry mutable per-run state): the serial path deep-copies,
    and :func:`_pool_run_single` deep-copies the broadcast payload
    before delegating here.
    """
    (
        config,
        mapping,
        programs,
        seed,
        warmup,
        measure,
        collect_obs,
        telemetry,
    ) = arguments
    if collect_obs:
        # Fork-started workers inherit the parent's trace buffer; start
        # fresh so this worker's spans carry its own pid exactly once.
        # The metrics registry is reset for the same reason: histograms
        # accumulated here ship back on the payload, and inherited (or
        # previous-task) state must not ride along twice.
        obs.enable()
        obs.reset()
        obs.REGISTRY.reset()
    mark = obs.trace_mark() if collect_obs else 0
    with obs.span("replication", seed=seed):
        machine = Machine(config.with_seed(seed), mapping, programs)
        if telemetry is not None:
            machine.attach_telemetry(telemetry)
        summary = machine.run(warmup=warmup, measure=measure)
    payload = (
        {
            "pid": os.getpid(),
            "spans": obs.spans_since(mark),
            "histograms": obs.REGISTRY.snapshot_histograms(),
        }
        if collect_obs
        else None
    )
    return summary, payload


def _pool_run_single(payload, task):
    """Warm-pool task: rebuild per-task isolation, then run one seed.

    ``payload`` is the broadcast ``(config, mapping, programs)`` shared
    by every task on this worker; programs are stateful across a run, so
    each task takes a deep copy — the isolation per-task pickling used
    to provide, now paid per task-copy instead of per task-transfer.
    """
    config, mapping, programs = payload
    seed, warmup, measure, collect_obs, telemetry = task
    if not collect_obs and obs.is_enabled():
        # A warm worker may carry obs state enabled by an earlier task
        # (or inherited over fork); this run must not record into it.
        obs.disable()
        obs.reset()
    return _run_single(
        (
            config,
            copy.deepcopy(mapping),
            copy.deepcopy(programs),
            seed,
            warmup,
            measure,
            collect_obs,
            telemetry,
        )
    )


def _run_batch_chunk(
    arguments,
) -> Tuple[List[MeasurementSummary], Optional[Dict]]:
    """One chunk of seeds through :func:`repro.sim.batch.run_batch`.

    The batched counterpart of :func:`_run_single`: same argument-tuple
    convention, same worker obs bootstrap, but one call runs every seed
    in the chunk and returns the summaries in chunk order (each
    bit-identical to its solo run, telemetry snapshot included).
    """
    (
        config,
        mapping,
        programs,
        chunk,
        warmup,
        measure,
        collect_obs,
        telemetry,
    ) = arguments
    if collect_obs:
        # Same worker bootstrap as _run_single: fresh trace buffer and
        # metrics registry so this task's spans/histograms ship exactly
        # once.
        obs.enable()
        obs.reset()
        obs.REGISTRY.reset()
    mark = obs.trace_mark() if collect_obs else 0
    with obs.span("replication.batch", seeds=len(chunk)):
        summaries = run_batch(
            config,
            mapping,
            programs,
            chunk,
            warmup=warmup,
            measure=measure,
            telemetry=telemetry,
        )
    payload = (
        {
            "pid": os.getpid(),
            "spans": obs.spans_since(mark),
            "histograms": obs.REGISTRY.snapshot_histograms(),
        }
        if collect_obs
        else None
    )
    return summaries, payload


def _pool_run_batch(payload, task):
    """Warm-pool task: one seed chunk through :func:`run_batch`.

    Mirrors :func:`_pool_run_single`'s isolation contract: the broadcast
    ``(config, mapping, programs)`` payload is shared across tasks on
    this worker, so mapping/programs are deep-copied per task before
    ``run_batch`` takes its own per-replication copies.
    """
    config, mapping, programs = payload
    chunk, warmup, measure, collect_obs, telemetry = task
    if not collect_obs and obs.is_enabled():
        obs.disable()
        obs.reset()
    return _run_batch_chunk(
        (
            config,
            copy.deepcopy(mapping),
            copy.deepcopy(programs),
            chunk,
            warmup,
            measure,
            collect_obs,
            telemetry,
        )
    )


def run_replications(
    config: SimulationConfig,
    mapping: Mapping,
    programs: Sequence[Sequence[ThreadProgram]],
    seeds: Sequence[int],
    jobs: int = 1,
    warmup: Optional[int] = None,
    measure: Optional[int] = None,
    telemetry: Optional[TelemetryConfig] = None,
    pool: Optional[WorkerPool] = None,
    batch: int = 1,
) -> ReplicationResult:
    """Run one machine configuration under each seed and aggregate.

    ``jobs > 1`` fans the replications over the process-global warm
    worker pool (:func:`repro.core.pool.get_pool`): the
    ``(config, mapping, programs)`` payload is broadcast to the workers
    once and each task ships only its seed and window overrides, so N
    replications pickle the machine description once, not N times.
    When no pool can run here the sweep falls back to the serial path —
    loudly, via the ``pool.fallback`` counter and a
    :class:`~repro.core.pool.PoolFallbackWarning` — and results and
    aggregates are identical either way.  Pass ``pool`` to use a
    specific (e.g. spawn-start-method) pool instead of the global one.

    ``warmup`` / ``measure`` override the config's windows, as with
    :meth:`Machine.run`.  With a ``telemetry`` config each replication's
    machine runs instrumented and its snapshot rides on the per-seed
    summary (merge across seeds with
    :meth:`ReplicationResult.merged_telemetry`); with observability on,
    pool workers additionally ship their histogram state back for the
    jobs-invariant registry merge.

    ``batch > 1`` packs the seeds into contiguous chunks of at most
    ``batch`` and hands each chunk to :func:`repro.sim.batch.run_batch`,
    which runs cut-through chunks without telemetry in lockstep on the
    compiled core and every other chunk as one machine per seed.
    Per-seed summaries (and telemetry snapshots) are bit-identical to
    the ``batch=1`` path, so batching composes freely with ``jobs``:
    each chunk is one pool task, multiplying the batch speedup by the
    pool's scaling.
    """
    seeds = tuple(int(seed) for seed in seeds)
    if not seeds:
        raise ParameterError("need at least one replication seed")
    batch = int(batch)
    if batch < 1:
        raise ParameterError(f"batch must be >= 1; got {batch}")
    if batch > len(seeds):
        raise ParameterError(
            f"batch ({batch}) exceeds the replication count "
            f"({len(seeds)}); pass batch <= len(seeds)"
        )
    collect_obs = obs.is_enabled()
    outcomes: Optional[List[Tuple[MeasurementSummary, Optional[Dict]]]] = None
    with obs.span("replicate", seeds=len(seeds), jobs=jobs, batch=batch):
        if batch > 1:
            chunks = chunk_tasks(seeds, batch)
            chunk_outcomes = None
            if jobs > 1 or pool is not None:
                try:
                    worker_pool = pool if pool is not None else get_pool(jobs)
                    worker_pool.broadcast(
                        "sim.replicate", (config, mapping, programs)
                    )
                    tasks = [
                        (chunk, warmup, measure, collect_obs, telemetry)
                        for chunk in chunks
                    ]
                    chunk_outcomes = worker_pool.map(
                        _pool_run_batch, tasks, key="sim.replicate"
                    )
                    if collect_obs:
                        obs.ingest_worker_payloads(
                            payload for _, payload in chunk_outcomes
                        )
                except FALLBACK_ERRORS as error:
                    note_fallback("sim.replicate", error)
                    chunk_outcomes = None  # run the chunks serially below
            if chunk_outcomes is None:
                chunk_outcomes = [
                    _run_batch_chunk(
                        (
                            config,
                            copy.deepcopy(mapping),
                            copy.deepcopy(programs),
                            chunk,
                            warmup,
                            measure,
                            False,
                            telemetry,
                        )
                    )
                    for chunk in chunks
                ]
            # Chunks are contiguous slices of the seed tuple, so plain
            # concatenation restores seed order.
            outcomes = [
                (summary, None)
                for chunk_summaries, _ in chunk_outcomes
                for summary in chunk_summaries
            ]
        elif jobs > 1 or pool is not None:
            try:
                worker_pool = pool if pool is not None else get_pool(jobs)
                worker_pool.broadcast(
                    "sim.replicate", (config, mapping, programs)
                )
                tasks = [
                    (seed, warmup, measure, collect_obs, telemetry)
                    for seed in seeds
                ]
                outcomes = worker_pool.map(
                    _pool_run_single, tasks, key="sim.replicate"
                )
                if collect_obs:
                    obs.ingest_worker_payloads(
                        payload for _, payload in outcomes
                    )
            except FALLBACK_ERRORS as error:
                note_fallback("sim.replicate", error)
                outcomes = None  # no usable pool; run serially below
        if outcomes is None:
            # Serial path: deep-copy mapping/programs per run for the
            # same isolation pool pickling provides (programs may carry
            # mutable per-run state).
            outcomes = [
                _run_single(
                    (
                        config,
                        copy.deepcopy(mapping),
                        copy.deepcopy(programs),
                        seed,
                        warmup,
                        measure,
                        False,
                        telemetry,
                    )
                )
                for seed in seeds
            ]
    summaries = [summary for summary, _ in outcomes]
    return ReplicationResult(
        seeds=seeds,
        summaries=summaries,
        aggregates=aggregate_summaries(summaries),
        rng={
            "seeds": list(seeds),
            "scheme": (
                "per-replication root seed -> "
                "numpy.random.SeedSequence(seed).spawn(nodes)"
            ),
        },
    )
