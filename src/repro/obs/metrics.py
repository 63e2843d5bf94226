"""Metrics registry: counters and fixed-bucket histograms.

The registry is the single home for quantitative diagnostics: counters
(the solver's ``perf.*`` work counters among them) and histograms with
*fixed* bucket boundaries, so distributions — solver iteration counts,
experiment wall times — can be merged across processes and compared
across runs without re-bucketing.

Metrics are always live: incrementing a counter is a plain integer add,
cheap enough that nothing needs to be gated on the observability switch.
The span/diagnostic layers in :mod:`repro.obs` are what compile to
no-ops when observability is off; they *feed* this registry when on.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ParameterError

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "ITERATION_BUCKETS",
    "LATENCY_BUCKETS_SECONDS",
    "UTILIZATION_BUCKETS",
]

#: Bisection-iteration distribution boundaries (``<=`` semantics).
ITERATION_BUCKETS: Tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, 150, 200)

#: Wall-time distribution boundaries, in seconds.
LATENCY_BUCKETS_SECONDS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 60.0, 600.0,
)

#: Channel-utilization distribution boundaries (rho in [0, 1]).
UTILIZATION_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0,
)


class Counter:
    """Monotonically increasing integer metric."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def as_dict(self) -> Dict:
        return {"type": "counter", "value": self.value}

    def reset(self) -> None:
        self.value = 0


class Histogram:
    """Fixed-bucket distribution.

    ``buckets`` are inclusive upper bounds: an observation lands in the
    first bucket whose bound is ``>= value`` (Prometheus ``le``
    semantics); values above the last bound land in the overflow slot
    (``counts[-1]``).  Bounds are fixed at construction so histograms
    from different processes or runs merge bucket-for-bucket.
    """

    __slots__ = ("name", "help", "buckets", "counts", "count", "sum")

    def __init__(self, name: str, buckets: Sequence[float], help: str = ""):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ParameterError(f"histogram {name!r} needs >= 1 bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ParameterError(
                f"histogram {name!r} bucket bounds must strictly increase, "
                f"got {bounds}"
            )
        self.name = name
        self.help = help
        self.buckets = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    def as_dict(self) -> Dict:
        return {
            "type": "histogram",
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }

    def reset(self) -> None:
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0

    def render(self) -> str:
        """One-line ``[<=bound] n`` view (overflow as ``[>last]``)."""
        parts = [
            f"[<={bound:g}] {count}"
            for bound, count in zip(self.buckets, self.counts)
        ]
        parts.append(f"[>{self.buckets[-1]:g}] {self.counts[-1]}")
        return " ".join(parts)


class MetricsRegistry:
    """Named metric store with get-or-create accessors.

    Accessors return the existing metric when the name is already
    registered (so call sites never need import-order coordination) and
    raise :class:`~repro.errors.ParameterError` if the name is bound to
    a different metric type.
    """

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, name: str, factory, kind: type):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise ParameterError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, help), Counter)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        help: str = "",
    ) -> Histogram:
        bounds = LATENCY_BUCKETS_SECONDS if buckets is None else buckets
        return self._get_or_create(
            name, lambda: Histogram(name, bounds, help), Histogram
        )

    def get(self, name: str):
        """The registered metric, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict]:
        """All metrics as plain (JSON-serializable) dicts."""
        return {
            name: metric.as_dict()
            for name, metric in sorted(self._metrics.items())
        }

    def merge_counters(self, values: Dict[str, int]) -> None:
        """Add ``values`` into same-named counters (cross-process merge)."""
        for name, value in values.items():
            self.counter(name).inc(int(value))

    def snapshot_histograms(self) -> Dict[str, Dict]:
        """Only the histograms, as plain dicts (pool-worker payloads)."""
        return {
            name: metric.as_dict()
            for name, metric in sorted(self._metrics.items())
            if isinstance(metric, Histogram)
        }

    def merge_histograms(self, values: Dict[str, Dict]) -> None:
        """Fold serialized histograms into same-named ones bucket-for-bucket.

        ``values`` maps names to :meth:`Histogram.as_dict` payloads
        (what :meth:`snapshot_histograms` produces on the other side of
        a process boundary).  Unknown names are registered with the
        payload's bounds; known names must agree on bounds — merging
        across different bucketings would silently misplace counts, so
        a mismatch raises :class:`~repro.errors.ParameterError`.
        """
        for name, data in sorted(values.items()):
            bounds = tuple(float(b) for b in data["buckets"])
            histogram = self.histogram(name, bounds)
            if histogram.buckets != bounds:
                raise ParameterError(
                    f"histogram {name!r} bucket bounds mismatch: "
                    f"registered {histogram.buckets}, payload {bounds}"
                )
            counts = data["counts"]
            if len(counts) != len(histogram.counts):
                raise ParameterError(
                    f"histogram {name!r} payload has {len(counts)} "
                    f"counts, expected {len(histogram.counts)}"
                )
            for index, value in enumerate(counts):
                histogram.counts[index] += int(value)
            histogram.count += int(data["count"])
            histogram.sum += float(data["sum"])

    def reset(self) -> None:
        """Zero every registered metric (registrations are kept)."""
        for metric in self._metrics.values():
            metric.reset()


#: The process-global registry all instrumentation reports into.
REGISTRY = MetricsRegistry()
