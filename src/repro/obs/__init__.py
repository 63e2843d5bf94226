"""repro.obs — unified instrumentation: spans, metrics, diagnostics, provenance.

The observability layer answers the questions the model outputs don't:
*where does campaign wall-time go, why did a solve converge (or not),
and which exact inputs produced this figure?*  Four pieces:

* **spans** (:mod:`repro.obs.spans`) — ``with obs.span("solve", d=4.0)``
  timed intervals, exported as Chrome-trace JSON (``chrome://tracing`` /
  Perfetto) and JSONL;
* **metrics** (:mod:`repro.obs.metrics`) — the process-global counter /
  histogram registry (:data:`~repro.obs.metrics.REGISTRY`),
  which also holds the solver's ``perf.*`` work counters;
* **solver diagnostics** (:mod:`repro.obs.diagnostics`) — per-solve
  convergence records behind ``repro-locality diagnose``;
* **manifests** (:mod:`repro.obs.manifest`) — run provenance (git SHA,
  parameter hash, seeds, counters, timings) written beside every trace.

Observability is **off by default** and everything but the always-cheap
metrics registry compiles to a no-op: :func:`span` returns a shared
do-nothing context manager and :func:`solver_diagnostics` returns
``None``, so the solver/simulator hot paths pay one flag check.  Enable
per process with :func:`enable`, per run with ``repro-locality ...
--trace DIR``, or globally with the ``REPRO_OBS=1`` environment variable
(how CI force-enables the instrumented paths under the tier-1 suite).
Model *results* never depend on any of this — parity guarantees hold
bit-for-bit with observability on or off.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, List, Optional

from repro.obs.diagnostics import SolveDiagnostics, render_diagnosis
from repro.obs.manifest import RunManifest, build_manifest, parameter_hash
from repro.obs.metrics import REGISTRY, Counter, Histogram, MetricsRegistry
from repro.obs.spans import NULL_SPAN, TraceBuffer

__all__ = [
    # switches
    "enable",
    "is_enabled",
    "reset",
    # spans
    "span",
    "trace",
    "trace_counter",
    "trace_mark",
    "spans_since",
    "ingest_spans",
    "ingest_worker_payloads",
    "write_chrome_trace",
    "write_spans_jsonl",
    # metrics
    "REGISTRY",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    # diagnostics
    "solver_diagnostics",
    "render_diagnosis",
    "SolveDiagnostics",
    # provenance
    "RunManifest",
    "build_manifest",
    "parameter_hash",
    "write_outputs",
]


class _ObsState:
    """Per-process observability state (fresh trace/diagnostics on enable)."""

    __slots__ = ("enabled", "trace", "diagnostics", "started_wall", "started_cpu")

    def __init__(self):
        self.enabled = False
        self.trace = TraceBuffer()
        self.diagnostics = SolveDiagnostics()
        self.started_wall = time.perf_counter()
        self.started_cpu = time.process_time()


_STATE = _ObsState()


def is_enabled() -> bool:
    """Whether spans and solver diagnostics are being collected."""
    return _STATE.enabled


def enable() -> None:
    """Turn collection on."""
    _STATE.enabled = True


def reset() -> None:
    """Drop collected spans and solve records (enabled flag unchanged)."""
    enabled = _STATE.enabled
    _STATE.__init__()
    _STATE.enabled = enabled


# ----------------------------------------------------------------------
# Spans.
# ----------------------------------------------------------------------


def span(name: str, **attrs):
    """A timed, named context manager; a shared no-op when disabled."""
    if not _STATE.enabled:
        return NULL_SPAN
    return _STATE.trace.span(name, attrs)


def trace() -> TraceBuffer:
    """The live trace buffer (spans collected so far in this process)."""
    return _STATE.trace


def trace_counter(name: str, ts_us: float, values: Dict) -> None:
    """Record one counter sample (Chrome ph="C"); no-op when disabled.

    ``values`` is a flat name→number mapping; ``ts_us`` the sample's
    timestamp in trace microseconds (callers with cycle-based timebases
    map one cycle to one microsecond).
    """
    if _STATE.enabled:
        _STATE.trace.add_counter(name, ts_us, values)


def trace_mark() -> int:
    return _STATE.trace.mark()


def spans_since(mark: int) -> List[Dict]:
    return _STATE.trace.since(mark)


def ingest_spans(records: Iterable[Dict]) -> int:
    """Merge span records from another process into this trace."""
    return _STATE.trace.ingest(records)


def ingest_worker_payloads(payloads: Iterable[Optional[Dict]]) -> int:
    """Merge ``{"pid", "spans"[, "histograms"]}`` pool-worker payloads.

    The shared pool-worker convention (campaign runner, replication
    harness): each worker records spans into a fresh buffer and returns
    them stamped with its pid; the parent folds them in here, skipping
    payloads stamped with its *own* pid (a worker that ran serially, or
    a fork that shipped inherited spans back).  A payload may also carry
    ``"histograms"`` — :meth:`MetricsRegistry.snapshot_histograms` state
    accumulated in the worker — which is folded into the parent
    ``REGISTRY`` bucket-for-bucket, so distributions (e.g. the fabric
    telemetry's worm-latency histogram) are identical whether the
    replications ran serially or across ``--jobs`` workers.  Returns the
    number of span records merged.
    """
    own_pid = os.getpid()
    merged = 0
    for payload in payloads:
        if not payload or payload.get("pid") == own_pid:
            continue
        merged += ingest_spans(payload.get("spans", ()))
        histograms = payload.get("histograms")
        if histograms:
            REGISTRY.merge_histograms(histograms)
    return merged


def write_chrome_trace(path: str) -> str:
    return _STATE.trace.write_chrome_trace(path)


def write_spans_jsonl(path: str) -> str:
    return _STATE.trace.write_jsonl(path)


# ----------------------------------------------------------------------
# Solver diagnostics.
# ----------------------------------------------------------------------


def solver_diagnostics() -> Optional[SolveDiagnostics]:
    """The live solve-record collector, or ``None`` while disabled."""
    return _STATE.diagnostics if _STATE.enabled else None


def diagnostics() -> SolveDiagnostics:
    """The collector regardless of the enabled flag (for reports)."""
    return _STATE.diagnostics


# ----------------------------------------------------------------------
# Combined outputs.
# ----------------------------------------------------------------------


def write_outputs(
    directory: str,
    experiments: Iterable[str] = (),
    parameters: Optional[Dict] = None,
    rng_seeds: Optional[Dict] = None,
) -> Dict[str, str]:
    """Write ``trace.json``, ``trace.jsonl``, and ``manifest.json``.

    Returns the mapping of artifact kind to written path.  Wall/CPU time
    cover the window since the state was created (process start, the
    last :func:`reset`).
    """
    os.makedirs(directory, exist_ok=True)
    manifest = build_manifest(
        list(experiments),
        parameters=parameters,
        rng_seeds=rng_seeds,
        wall_seconds=time.perf_counter() - _STATE.started_wall,
        cpu_seconds=time.process_time() - _STATE.started_cpu,
    )
    return {
        "trace": write_chrome_trace(os.path.join(directory, "trace.json")),
        "spans": write_spans_jsonl(os.path.join(directory, "trace.jsonl")),
        "manifest": manifest.write(os.path.join(directory, "manifest.json")),
    }


# Environment opt-in: REPRO_OBS=1 force-enables collection at import time
# (used by CI to run the tier-1 suite down the instrumented paths).
if os.environ.get("REPRO_OBS", "").strip().lower() in ("1", "true", "yes", "on"):
    enable()
