"""Parallel multi-seed replication of simulator runs.

Every simulated figure used to rest on a single seed.  This module runs
the same (config, mapping, programs) machine under a list of root seeds
— serially, fanned out over worker processes
(:func:`repro.core.pool.process_map`), and/or packed into batches
(``batch=R`` routes contiguous seed chunks through
:func:`repro.sim.batch.run_batch`, one lockstep pass per chunk where the
compiled core applies) — and aggregates each
:class:`~repro.sim.stats.MeasurementSummary` metric into mean / sample
standard deviation / 95% confidence interval, so model-vs-sim
comparisons carry error bars instead of point estimates.

Determinism contract: for a fixed seed list the aggregates (and the
per-seed summaries) are identical regardless of ``jobs``.  Each
replication is an isolated machine built from ``config.with_seed(seed)``
with its own deep copy of the mapping and programs (a worker serves
several tasks from one payload, so nothing may mutate it), results are
reassembled in seed order whatever the completion order, and the
statistics are computed with plain float arithmetic over that order.

Seed policy: :func:`default_seeds` enumerates ``root, root+1, ...`` so
the first replication of a campaign is exactly the old single-seed run —
adding error bars never changes existing point estimates.  Every
processor stream inside a replication derives from that replication's
seed via ``numpy.random.SeedSequence`` (see :mod:`repro.sim.processor`),
and the RNG provenance rides on the result for run manifests.

With observability enabled the whole sweep runs under a ``replicate``
span, each replication inside a ``replication`` span; worker processes
ship their span records back on the result tuple and the parent merges them
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
    chunk_tasks,
    note_fallback,
    process_map,
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


def _worker_obs_start(collect_obs: bool) -> int:
    """Give a worker process a fresh trace buffer; returns its mark.

    Fork-started workers inherit the parent's trace buffer and metrics
    registry, and a worker runs several tasks; starting fresh per task
    makes this task's spans carry the worker's pid and its histograms
    ship back exactly once.
    """
    if not collect_obs:
        return 0
    obs.enable()
    obs.reset()
    obs.REGISTRY.reset()
    return obs.trace_mark()


def _worker_obs_payload(collect_obs: bool, mark: int) -> Optional[Dict]:
    """This task's spans and histograms, for the parent to merge."""
    if not collect_obs:
        return None
    return {
        "pid": os.getpid(),
        "spans": obs.spans_since(mark),
        "histograms": obs.REGISTRY.snapshot_histograms(),
    }


def _run_seed(payload, task) -> Tuple[MeasurementSummary, Optional[Dict]]:
    """One seeded machine run against the shared ``payload``.

    ``payload`` is ``(config, mapping, programs)``; programs carry
    mutable per-run state, so every run takes its own deep copies.
    ``collect_obs`` is set only for tasks that run in a worker process.
    """
    config, mapping, programs = payload
    seed, warmup, measure, collect_obs, telemetry = task
    mark = _worker_obs_start(collect_obs)
    with obs.span("replication", seed=seed):
        machine = Machine(
            config.with_seed(seed),
            copy.deepcopy(mapping),
            copy.deepcopy(programs),
        )
        if telemetry is not None:
            machine.attach_telemetry(telemetry)
        summary = machine.run(warmup=warmup, measure=measure)
    return summary, _worker_obs_payload(collect_obs, mark)


def _run_chunk(
    payload, task
) -> Tuple[List[MeasurementSummary], Optional[Dict]]:
    """One chunk of seeds through :func:`repro.sim.batch.run_batch`.

    The batched counterpart of :func:`_run_seed`: same payload and task
    convention, but one call runs every seed in the chunk and returns
    the summaries in chunk order (each bit-identical to its solo run,
    telemetry snapshot included).
    """
    config, mapping, programs = payload
    chunk, warmup, measure, collect_obs, telemetry = task
    mark = _worker_obs_start(collect_obs)
    with obs.span("replication.batch", seeds=len(chunk)):
        summaries = run_batch(
            config,
            copy.deepcopy(mapping),
            copy.deepcopy(programs),
            chunk,
            warmup=warmup,
            measure=measure,
            telemetry=telemetry,
        )
    return summaries, _worker_obs_payload(collect_obs, mark)


def run_replications(
    config: SimulationConfig,
    mapping: Mapping,
    programs: Sequence[Sequence[ThreadProgram]],
    seeds: Sequence[int],
    jobs: int = 1,
    warmup: Optional[int] = None,
    measure: Optional[int] = None,
    telemetry: Optional[TelemetryConfig] = None,
    batch: int = 1,
) -> ReplicationResult:
    """Run one machine configuration under each seed and aggregate.

    ``jobs > 1`` fans the replications over that many worker processes
    (:func:`repro.core.pool.process_map`): the
    ``(config, mapping, programs)`` payload reaches each worker once and
    each task carries only its seed and window overrides.  When no
    worker can run here the sweep falls back to the serial path —
    loudly, via the ``pool.fallback`` counter and a
    :class:`~repro.core.pool.PoolFallbackWarning` — and results and
    aggregates are identical either way.  ``jobs < 1`` raises
    :class:`~repro.errors.ParameterError`.

    ``warmup`` / ``measure`` override the config's windows, as with
    :meth:`Machine.run`.  With a ``telemetry`` config each replication's
    machine runs instrumented and its snapshot rides on the per-seed
    summary (merge across seeds with
    :meth:`ReplicationResult.merged_telemetry`); with observability on,
    worker processes additionally ship their histogram state back for
    the jobs-invariant registry merge.

    ``batch > 1`` packs the seeds into contiguous chunks of at most
    ``batch`` and hands each chunk to :func:`repro.sim.batch.run_batch`,
    which runs cut-through chunks without telemetry in lockstep on the
    compiled core and every other chunk as one machine per seed.
    Per-seed summaries (and telemetry snapshots) are bit-identical to
    the ``batch=1`` path, so batching composes freely with ``jobs``:
    each chunk is one worker task, multiplying the batch speedup by the
    jobs scaling.
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
    if batch > 1:
        run, units = _run_chunk, chunk_tasks(seeds, batch)
    else:
        run, units = _run_seed, seeds

    def fan_out(workers: int) -> List:
        tasks = [
            (unit, warmup, measure, collect_obs and workers > 1, telemetry)
            for unit in units
        ]
        return process_map(run, (config, mapping, programs), tasks, workers)

    outcomes = None
    with obs.span("replicate", seeds=len(seeds), jobs=jobs, batch=batch):
        if jobs != 1:
            try:
                outcomes = fan_out(jobs)
            except FALLBACK_ERRORS as error:
                note_fallback("sim.replicate", error)
        if outcomes is None:
            outcomes = fan_out(1)
    if collect_obs:
        obs.ingest_worker_payloads(payload for _, payload in outcomes)
    if batch > 1:
        # Chunks are contiguous slices of the seed tuple, so plain
        # concatenation restores seed order.
        summaries = [
            summary for chunk, _ in outcomes for summary in chunk
        ]
    else:
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
