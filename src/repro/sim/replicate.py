"""Multi-seed replication of simulator runs.

Every simulated figure used to rest on a single seed.  This module runs
the same (config, mapping, programs) machine under a list of root seeds
and aggregates each :class:`~repro.sim.stats.MeasurementSummary` metric
into mean / sample standard deviation / 95% confidence interval, so
model-vs-sim comparisons carry error bars instead of point estimates.

One rule picks how the seeds run: compiled work runs on threads in this
process, and worker processes serve only Python-bound work.  Seeds the
compiled core runs (:func:`repro.sim.batch.core_runs`) are one core
pass, :func:`repro.sim.batch.run_batch`, whose replications advance on
GIL-free threads.  Every other seed (wormhole, telemetry, other
programs, or a core that fails to load) is one serial
:class:`~repro.sim.machine.Machine`, and ``jobs`` fans those over worker
processes (:func:`repro.core.pool.process_map`), one seed per task.

Determinism contract: for a fixed seed list the aggregates (and the
per-seed summaries) are identical on every path and at any ``jobs``.
Each replication is bit-identical to its own machine built from
``config.with_seed(seed)`` with its own deep copy of the mapping and
programs (a worker serves several tasks from one payload, so nothing
may mutate it), results are reassembled in seed order whatever the
completion order, and the statistics are computed with plain float
arithmetic over that order.

Seed policy: :func:`default_seeds` enumerates ``root, root+1, ...`` so
the first replication of a campaign is exactly the old single-seed run —
adding error bars never changes existing point estimates.  Every
processor stream inside a replication derives from that replication's
seed via ``numpy.random.SeedSequence`` (see :mod:`repro.sim.processor`),
and the RNG provenance rides on the result for run manifests.

With observability enabled the whole sweep runs under a ``replicate``
span: a core pass inside it as one ``sim.batch`` span, each serial
machine inside a ``replication`` span.  Worker processes ship their span
records back on the result tuple and the parent merges them
(:func:`repro.obs.ingest_worker_payloads`), so a ``jobs=N`` trace is
equivalent to the in-process one.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.pool import FALLBACK_ERRORS, note_fallback, process_map
from repro.errors import ParameterError
from repro.mapping.base import Mapping
from repro.sim.batch import core_runs, run_batch, run_serial
from repro.sim.config import SimulationConfig
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


def _run_seed(payload, task) -> Tuple[MeasurementSummary, Optional[Dict]]:
    """Worker task: one seed on a serial machine
    (:func:`repro.sim.batch.run_serial`) against the shared ``payload``,
    ``(config, mapping, programs)``.

    A fork-started worker inherits the parent's trace buffer and metrics
    registry and serves several tasks, so with ``collect_obs`` each task
    starts both fresh and ships its spans (carrying the worker's pid)
    and histograms back for the parent to merge.
    """
    config, mapping, programs = payload
    seed, warmup, measure, collect_obs, telemetry = task
    if collect_obs:
        obs.enable()
        obs.reset()
        obs.REGISTRY.reset()
        mark = obs.trace_mark()
    summary = run_serial(
        config, mapping, programs, seed, warmup, measure, telemetry
    )
    if not collect_obs:
        return summary, None
    return summary, {
        "pid": os.getpid(),
        "spans": obs.spans_since(mark),
        "histograms": obs.REGISTRY.snapshot_histograms(),
    }


def _fan_out(
    config, mapping, programs, seeds, jobs, warmup, measure, telemetry
) -> List[MeasurementSummary]:
    """One serial machine per seed over ``jobs`` worker processes, or in
    this process if ``jobs`` is 1 or no worker can start; summaries in
    seed order."""
    if jobs > 1:
        collect_obs = obs.is_enabled()
        tasks = [(seed, warmup, measure, collect_obs, telemetry) for seed in seeds]
        try:
            outcomes = process_map(
                _run_seed, (config, mapping, programs), tasks, jobs
            )
        except FALLBACK_ERRORS as error:
            note_fallback("sim.replicate", error)
        else:
            if collect_obs:
                obs.ingest_worker_payloads(payload for _, payload in outcomes)
            return [summary for summary, _ in outcomes]
    return [
        run_serial(config, mapping, programs, seed, warmup, measure, telemetry)
        for seed in seeds
    ]


def run_replications(
    config: SimulationConfig,
    mapping: Mapping,
    programs: Sequence[Sequence[ThreadProgram]],
    seeds: Sequence[int],
    jobs: int = 1,
    warmup: Optional[int] = None,
    measure: Optional[int] = None,
    telemetry: Optional[TelemetryConfig] = None,
    batch: Optional[int] = None,
) -> ReplicationResult:
    """Run one machine configuration under each seed and aggregate.

    Where :func:`repro.sim.batch.core_runs` says the compiled core runs
    the seeds, they run in this process as one core pass
    (:func:`repro.sim.batch.run_batch`, whose replications advance on
    :func:`~repro.core.pool.thread_count` threads) whatever ``jobs`` is;
    ``batch`` caps the seeds per pass (default: all of them).  Every
    other sweep — wormhole, ``telemetry``, other programs, a core that
    fails to load — runs one serial machine per seed, fanned over
    ``jobs`` worker processes (:func:`repro.core.pool.process_map`): the
    ``(config, mapping, programs)`` payload reaches each worker once and
    each task carries only its seed and window overrides.  When no
    worker can run here those seeds run in this process — loudly, via
    the ``pool.fallback`` counter and a
    :class:`~repro.core.pool.PoolFallbackWarning`.  Results and
    aggregates are identical on every path.  ``jobs < 1`` raises
    :class:`~repro.errors.ParameterError`.

    ``warmup`` / ``measure`` override the config's windows, as with
    :meth:`Machine.run`.  With a ``telemetry`` config each replication's
    machine runs instrumented and its snapshot rides on the per-seed
    summary (merge across seeds with
    :meth:`ReplicationResult.merged_telemetry`); with observability on,
    worker processes additionally ship their histogram state back for
    the jobs-invariant registry merge.
    """
    seeds = tuple(int(seed) for seed in seeds)
    if not seeds:
        raise ParameterError("need at least one replication seed")
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs!r}")
    batch = len(seeds) if batch is None else int(batch)
    if batch < 1:
        raise ParameterError(f"batch must be >= 1; got {batch}")
    if batch > len(seeds):
        raise ParameterError(
            f"batch ({batch}) exceeds the replication count "
            f"({len(seeds)}); pass batch <= len(seeds)"
        )
    with obs.span("replicate", seeds=len(seeds), jobs=jobs, batch=batch):
        if core_runs(config, programs, telemetry):
            summaries = [
                summary
                for start in range(0, len(seeds), batch)
                for summary in run_batch(
                    config, mapping, programs, seeds[start:start + batch],
                    warmup=warmup, measure=measure,
                )
            ]
        else:
            summaries = _fan_out(
                config, mapping, programs, seeds, jobs, warmup, measure,
                telemetry,
            )
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
