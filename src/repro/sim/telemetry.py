"""Per-channel fabric telemetry: epoch-sampled congestion instrumentation.

The analytical model speaks in one number — average channel utilization ρ
— while the fabric knows every channel's actual traffic.  This module
closes that gap with an epoch-sampled instrumentation layer shared by
both fabrics (:class:`repro.sim.wormhole.WormholeFabric` and
:class:`repro.sim.cut_through.CutThroughFabric`):

* **busy-flit-cycle counters** — every channel grant books the message's
  ``flits`` against the granted channel (the same acquisition-time
  accounting the fabrics already do per physical link), so a channel's
  busy total over a window divided by the window length is its measured
  utilization ρ;
* **FIFO queue-depth sampling** — at each epoch boundary the per-channel
  waiting-worm counts are sampled, which is the raw signal behind the
  tree-saturation onset detector;
* **end-to-end worm latency histograms** — injection→delivery cycles per
  message, accumulated into a fixed-bucket
  :class:`~repro.obs.metrics.Histogram` so distributions merge across
  replications and pool workers bucket-for-bucket.

**Epoch model.**  Epoch ``e`` covers cycles ``[e*L, (e+1)*L)`` for epoch
length ``L``.  The fabric's ``tick`` rolls the open epoch *before*
advancing the crossing cycle, so an epoch boundary always observes the
state at the end of cycle ``e*L - 1``, whether the machine steps every
cycle or the event engine fast-forwards across the boundary — which is
what lets the engine parity tests pin busy matrices, depth matrices,
and latency histograms across drivers.
:meth:`FabricTelemetry.finalize` closes the trailing partial epoch, so
the busy matrix always sums to the exact per-channel flit totals.

**Cost model.**  Telemetry is attached per fabric instance and the hot
loop pays one ``is None`` branch per tick plus one per grant when it is
off (watched on the uniform workload by the benchmark suite's
``uniform_telemetry`` row and the CI ``repro-bench compare`` step).
When on, each grant costs one list increment and each epoch boundary one
numpy copy + queue-depth sweep; everything is accumulated per fabric, so
simulation results never depend on telemetry being attached.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ParameterError, SimulationError
from repro.obs.metrics import Histogram

__all__ = [
    "WORM_LATENCY_BUCKETS",
    "LATENCY_METRIC",
    "TelemetryConfig",
    "FabricTelemetry",
    "TelemetrySummary",
    "SaturationReport",
    "detect_saturation",
    "merge_snapshots",
    "write_telemetry_jsonl",
    "emit_trace_counters",
    "PROBE_WORKLOADS",
    "ProbeResult",
    "probe_schedule",
    "run_probe",
]

#: Worm latency bucket bounds, in network cycles.  Fixed so histograms
#: from different seeds, fabrics, and pool workers merge exactly.
WORM_LATENCY_BUCKETS: Tuple[float, ...] = (
    4, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 1024, 2048, 4096,
)

#: Registry name the per-run latency histogram is folded into at
#: finalize time (what pool workers ship back for jobs-invariant merge).
LATENCY_METRIC = "sim.telemetry.worm_latency"

#: Snapshot schema revision.
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class TelemetryConfig:
    """Parameters of one telemetry attachment.

    ``epoch_cycles`` is the sampling period ``L``; ``depth_threshold``
    the queue depth at which a channel counts as saturated for the onset
    detector.  The latency histogram always uses
    :data:`WORM_LATENCY_BUCKETS`.
    """

    epoch_cycles: int = 256
    depth_threshold: int = 8

    def __post_init__(self) -> None:
        if self.epoch_cycles < 1:
            raise ParameterError(
                f"epoch_cycles must be >= 1, got {self.epoch_cycles!r}"
            )
        if self.depth_threshold < 1:
            raise ParameterError(
                f"depth_threshold must be >= 1, got {self.depth_threshold!r}"
            )

    def as_dict(self) -> Dict:
        """Manifest-facing parameters (recorded with traced runs)."""
        return {
            "epoch_cycles": self.epoch_cycles,
            "latency_buckets": list(WORM_LATENCY_BUCKETS),
            "depth_threshold": self.depth_threshold,
        }


class FabricTelemetry:
    """Live per-channel instrumentation attached to one fabric.

    Built by the fabric's ``attach_telemetry``; the fabric bumps
    ``channel_flits[channel]`` at every grant, calls :meth:`roll_to`
    when a tick crosses ``epoch_end``, and :meth:`record_delivery` at
    each delivery.  The driver (``Machine.run`` or the probe loop)
    calls :meth:`finalize` once, after the last tick.
    """

    def __init__(
        self,
        config: TelemetryConfig,
        channels: int,
        link_of: Sequence[int],
        link_keys: Sequence[Tuple[int, int, int]],
        depth_probe: Callable[[], Sequence[int]],
        label: str = "fabric",
    ):
        self.config = config
        self.label = label
        self.channels = channels
        self._link_of = list(link_of)
        self._link_keys = [tuple(key) for key in link_keys]
        self._depth_probe = depth_probe
        #: Hot-path counter: the fabric grant loop does one scalar
        #: ``channel_flits[channel] += flits`` per grant.
        self.channel_flits: List[int] = [0] * channels
        self._last_flits = np.zeros(channels, dtype=np.int64)
        self._epoch_busy: List[np.ndarray] = []
        self._epoch_depth: List[np.ndarray] = []
        self._epoch_starts: List[int] = []
        self._epoch_lengths: List[int] = []
        self._epoch_delivered: List[int] = []
        self._delivered = 0
        self._delivered_at_close = 0
        self._latency = Histogram(
            LATENCY_METRIC, WORM_LATENCY_BUCKETS,
            help="end-to-end worm latency, network cycles",
        )
        self._epoch_start = 0
        #: Cycle at which the open epoch closes; the fabric tick's guard
        #: compares against this every cycle while telemetry is attached.
        self.epoch_end = config.epoch_cycles
        self.finalized = False
        self.total_cycles = 0

    # ------------------------------------------------------------------
    # Fabric-facing hooks.
    # ------------------------------------------------------------------

    def record_delivery(self, latency: int) -> None:
        """Book one delivered worm's injection→delivery latency."""
        self._latency.observe(latency)
        self._delivered += 1

    def roll_to(self, cycle: int) -> None:
        """Close every epoch that ends at or before ``cycle``.

        Called by the fabric tick when ``cycle >= epoch_end`` — before
        the cycle's own grants, so the boundary samples end-of-previous-
        cycle state.  Quiescent gaps spanning several epochs close each
        one in turn (the intermediate ones see zero busy deltas and the
        unchanged queue depths, which is exactly what happened).
        """
        while cycle >= self.epoch_end:
            self._close_epoch(self.epoch_end)

    def _close_epoch(self, end_cycle: int) -> None:
        current = np.asarray(self.channel_flits, dtype=np.int64)
        self._epoch_busy.append(current - self._last_flits)
        self._last_flits = current
        self._epoch_depth.append(
            np.asarray(self._depth_probe(), dtype=np.int64)
        )
        self._epoch_starts.append(self._epoch_start)
        self._epoch_lengths.append(end_cycle - self._epoch_start)
        self._epoch_delivered.append(self._delivered - self._delivered_at_close)
        self._delivered_at_close = self._delivered
        self._epoch_start = end_cycle
        self.epoch_end = end_cycle + self.config.epoch_cycles

    def finalize(self, total_cycles: int) -> None:
        """Close the trailing (possibly partial) epoch after the last tick.

        ``total_cycles`` is one past the last ticked cycle.  Idempotent;
        also folds the latency histogram into the process metrics
        registry under :data:`LATENCY_METRIC`, which is what pool
        workers ship back for the jobs-invariant cross-process merge.
        """
        if self.finalized:
            return
        self.roll_to(total_cycles)
        if total_cycles > self._epoch_start:
            self._close_epoch(total_cycles)
        self.total_cycles = total_cycles
        self.finalized = True
        from repro.obs.metrics import REGISTRY

        REGISTRY.merge_histograms({LATENCY_METRIC: self._latency.as_dict()})

    # ------------------------------------------------------------------
    # Export.
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict:
        """The accumulated telemetry as a plain (picklable, JSON-able) dict."""
        if not self.finalized:
            raise SimulationError(
                "telemetry snapshot requested before finalize()"
            )
        return {
            "version": SNAPSHOT_VERSION,
            "label": self.label,
            "epoch_cycles": self.config.epoch_cycles,
            "depth_threshold": self.config.depth_threshold,
            "channels": self.channels,
            "links": len(self._link_keys),
            "link_of": list(self._link_of),
            "link_keys": [list(key) for key in self._link_keys],
            "total_cycles": self.total_cycles,
            "epoch_starts": list(self._epoch_starts),
            "epoch_lengths": list(self._epoch_lengths),
            "epoch_delivered": list(self._epoch_delivered),
            "busy": [epoch.tolist() for epoch in self._epoch_busy],
            "depth": [epoch.tolist() for epoch in self._epoch_depth],
            "delivered": self._delivered,
            "latency": self._latency.as_dict(),
        }

    def summary(self) -> "TelemetrySummary":
        return TelemetrySummary(self.snapshot())


class TelemetrySummary:
    """Read-side wrapper over a telemetry snapshot dict."""

    def __init__(self, snapshot: Dict):
        if snapshot.get("version") != SNAPSHOT_VERSION:
            raise ParameterError(
                f"unsupported telemetry snapshot version "
                f"{snapshot.get('version')!r}"
            )
        self.data = snapshot
        self.busy = np.asarray(snapshot["busy"], dtype=np.int64).reshape(
            len(snapshot["busy"]), snapshot["channels"]
        )
        self.depth = np.asarray(snapshot["depth"], dtype=np.int64).reshape(
            len(snapshot["depth"]), snapshot["channels"]
        )

    @property
    def label(self) -> str:
        return self.data["label"]

    @property
    def epochs(self) -> int:
        return self.busy.shape[0]

    @property
    def channels(self) -> int:
        return self.data["channels"]

    @property
    def epoch_cycles(self) -> int:
        return self.data["epoch_cycles"]

    @property
    def total_cycles(self) -> int:
        return self.data["total_cycles"]

    @property
    def epoch_starts(self) -> List[int]:
        return list(self.data["epoch_starts"])

    @property
    def delivered(self) -> int:
        return self.data["delivered"]

    # -- utilization ---------------------------------------------------

    def channel_busy_total(self) -> np.ndarray:
        """Busy flit-cycles per channel over the whole window, ``(C,)``."""
        if self.epochs == 0:
            return np.zeros(self.channels, dtype=np.int64)
        return self.busy.sum(axis=0)

    def channel_utilization(self) -> np.ndarray:
        """Measured per-channel ρ: busy flit-cycles / window cycles."""
        window = self.total_cycles
        if window <= 0:
            return np.zeros(self.channels, dtype=float)
        return self.channel_busy_total() / float(window)

    def link_utilization(self) -> Dict[Tuple[int, int, int], float]:
        """Measured ρ per physical link (virtual channels summed)."""
        busy = self.channel_busy_total()
        totals: Dict[Tuple[int, int, int], float] = {
            tuple(key): 0.0 for key in self.data["link_keys"]
        }
        keys = self.data["link_keys"]
        window = float(self.total_cycles) or 1.0
        for channel, link in enumerate(self.data["link_of"]):
            if link >= 0:
                key = tuple(keys[link])
                totals[key] += busy[channel] / window
        return totals

    # -- latency -------------------------------------------------------

    def latency_mean(self) -> Optional[float]:
        data = self.data["latency"]
        return data["sum"] / data["count"] if data["count"] else None

    def latency_quantile(self, q: float) -> Optional[float]:
        """Approximate quantile: the upper bound of the covering bucket."""
        if not 0.0 <= q <= 1.0:
            raise ParameterError(f"quantile must be in [0, 1], got {q!r}")
        data = self.data["latency"]
        total = data["count"]
        if not total:
            return None
        rank = q * total
        running = 0
        bounds = data["buckets"]
        for index, count in enumerate(data["counts"]):
            running += count
            if running >= rank:
                if index < len(bounds):
                    return float(bounds[index])
                return float(bounds[-1])  # overflow bucket: best bound known
        return float(bounds[-1])

    # -- congestion ----------------------------------------------------

    def max_depth_per_epoch(self) -> np.ndarray:
        if self.epochs == 0:
            return np.zeros(0, dtype=np.int64)
        return self.depth.max(axis=1)

    def saturated_extent_per_epoch(self, threshold: int) -> np.ndarray:
        """Channels at or above ``threshold`` queue depth, per epoch."""
        if self.epochs == 0:
            return np.zeros(0, dtype=np.int64)
        return (self.depth >= threshold).sum(axis=1)


def merge_snapshots(snapshots: Sequence[Dict]) -> Dict:
    """Merge same-shaped telemetry snapshots (e.g. one per replication).

    Busy matrices and delivered counts add; queue depths take the
    element-wise peak (the saturation question is "did any replication
    back up here"); latency histograms merge bucket-for-bucket; windows
    add, so utilization derived from the merge is the cross-replication
    mean.  Epoch counts may differ (drain tails vary by seed) — shorter
    runs are zero-padded.
    """
    snapshots = list(snapshots)
    if not snapshots:
        raise ParameterError("no telemetry snapshots to merge")
    first = snapshots[0]
    for snapshot in snapshots[1:]:
        for field in ("version", "epoch_cycles", "channels", "link_of"):
            if snapshot[field] != first[field]:
                raise ParameterError(
                    f"telemetry snapshots disagree on {field!r}; "
                    "cannot merge"
                )
    channels = first["channels"]
    epochs = max(len(s["busy"]) for s in snapshots)

    def padded(rows: List, count: int) -> np.ndarray:
        matrix = np.zeros((count, channels), dtype=np.int64)
        if rows:
            matrix[: len(rows)] = np.asarray(rows, dtype=np.int64)
        return matrix

    busy = sum(padded(s["busy"], epochs) for s in snapshots)
    depth = padded(first["depth"], epochs)
    for snapshot in snapshots[1:]:
        depth = np.maximum(depth, padded(snapshot["depth"], epochs))
    delivered_per_epoch = [0] * epochs
    for snapshot in snapshots:
        for index, count in enumerate(snapshot["epoch_delivered"]):
            delivered_per_epoch[index] += count
    longest = max(snapshots, key=lambda s: len(s["busy"]))
    latency = dict(first["latency"])
    latency["counts"] = list(latency["counts"])
    for snapshot in snapshots[1:]:
        other = snapshot["latency"]
        if list(other["buckets"]) != list(latency["buckets"]):
            raise ParameterError(
                "telemetry snapshots disagree on latency buckets"
            )
        latency["counts"] = [
            a + b for a, b in zip(latency["counts"], other["counts"])
        ]
        latency["count"] = latency["count"] + other["count"]
        latency["sum"] = latency["sum"] + other["sum"]
    return {
        "version": SNAPSHOT_VERSION,
        "label": f"merged[{len(snapshots)}x {first['label']}]",
        "epoch_cycles": first["epoch_cycles"],
        "depth_threshold": first["depth_threshold"],
        "channels": channels,
        "links": first["links"],
        "link_of": list(first["link_of"]),
        "link_keys": [list(key) for key in first["link_keys"]],
        "total_cycles": sum(s["total_cycles"] for s in snapshots),
        "epoch_starts": list(longest["epoch_starts"]),
        "epoch_lengths": list(longest["epoch_lengths"]),
        "epoch_delivered": delivered_per_epoch,
        "busy": busy.tolist(),
        "depth": depth.tolist(),
        "delivered": sum(s["delivered"] for s in snapshots),
        "latency": latency,
    }


# ----------------------------------------------------------------------
# Tree-saturation onset detection.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SaturationReport:
    """Per-epoch saturation wavefront of one telemetry window.

    ``onset_epoch`` is the first epoch whose sampled max queue depth
    reaches ``threshold`` (``None`` if the run never saturates);
    ``extent`` counts channels at or beyond the threshold per epoch —
    the width of the blocked-channel tree's wavefront.
    """

    threshold: int
    epoch_cycles: int
    onset_epoch: Optional[int]
    onset_cycle: Optional[int]
    peak_depth: Tuple[int, ...]
    extent: Tuple[int, ...]

    @property
    def saturated(self) -> bool:
        return self.onset_epoch is not None

    @property
    def peak_extent(self) -> int:
        return max(self.extent, default=0)

    def as_dict(self) -> Dict:
        return {
            "threshold": self.threshold,
            "epoch_cycles": self.epoch_cycles,
            "saturated": self.saturated,
            "onset_epoch": self.onset_epoch,
            "onset_cycle": self.onset_cycle,
            "peak_depth": list(self.peak_depth),
            "extent": list(self.extent),
        }

    def render(self) -> str:
        if not self.saturated:
            return (
                f"no tree saturation: max queue depth "
                f"{max(self.peak_depth, default=0)} stayed below the "
                f"threshold of {self.threshold}"
            )
        lines = [
            f"tree saturation onset: epoch {self.onset_epoch} "
            f"(cycle {self.onset_cycle}, threshold depth {self.threshold})"
        ]
        for epoch, (depth, width) in enumerate(
            zip(self.peak_depth, self.extent)
        ):
            marker = " <- onset" if epoch == self.onset_epoch else ""
            lines.append(
                f"  epoch {epoch:>3} (cycle {epoch * self.epoch_cycles:>6}): "
                f"max depth {depth:>4}, saturated channels {width:>4}{marker}"
            )
        return "\n".join(lines)


def detect_saturation(summary: TelemetrySummary) -> SaturationReport:
    """Find the tree-saturation onset in one telemetry window, at the
    depth threshold the telemetry was configured with.

    Epoch boundaries sample end-of-epoch state, so the
    onset cycle reported is the *end* of the first saturated epoch — the
    finest statement the sampling resolution supports.
    """
    threshold = int(summary.data["depth_threshold"])
    peaks = summary.max_depth_per_epoch()
    extent = summary.saturated_extent_per_epoch(threshold)
    onset_epoch: Optional[int] = None
    onset_cycle: Optional[int] = None
    hits = np.nonzero(peaks >= threshold)[0]
    if hits.size:
        onset_epoch = int(hits[0])
        starts = summary.epoch_starts
        lengths = summary.data["epoch_lengths"]
        onset_cycle = int(starts[onset_epoch] + lengths[onset_epoch])
    return SaturationReport(
        threshold=threshold,
        epoch_cycles=summary.epoch_cycles,
        onset_epoch=onset_epoch,
        onset_cycle=onset_cycle,
        peak_depth=tuple(int(d) for d in peaks),
        extent=tuple(int(w) for w in extent),
    )


# ----------------------------------------------------------------------
# Export: JSONL and Chrome-trace counter series.
# ----------------------------------------------------------------------


def write_telemetry_jsonl(snapshot: Dict, path: str) -> str:
    """Write one telemetry snapshot as JSONL: header, epochs, latency.

    The first line is a ``kind: "telemetry"`` header with the geometry,
    followed by one ``kind: "epoch"`` line per epoch (busy and depth
    vectors in dense channel-id order) and a closing ``kind: "latency"``
    line with the histogram.
    """
    summary = TelemetrySummary(snapshot)
    header = {
        "kind": "telemetry",
        "version": snapshot["version"],
        "label": snapshot["label"],
        "epoch_cycles": snapshot["epoch_cycles"],
        "channels": snapshot["channels"],
        "links": snapshot["links"],
        "total_cycles": snapshot["total_cycles"],
        "epochs": summary.epochs,
        "delivered": snapshot["delivered"],
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        peaks = summary.max_depth_per_epoch()
        for epoch in range(summary.epochs):
            record = {
                "kind": "epoch",
                "epoch": epoch,
                "start": snapshot["epoch_starts"][epoch],
                "cycles": snapshot["epoch_lengths"][epoch],
                "delivered": snapshot["epoch_delivered"][epoch],
                "busy": snapshot["busy"][epoch],
                "depth": snapshot["depth"][epoch],
                "max_depth": int(peaks[epoch]),
            }
            handle.write(json.dumps(record) + "\n")
        handle.write(
            json.dumps({"kind": "latency", **snapshot["latency"]}) + "\n"
        )
    return path


def emit_trace_counters(snapshot: Dict) -> int:
    """Fold a telemetry window into the live trace as counter events.

    Emits one Chrome-trace counter sample per epoch — mean link ρ, max
    queue depth, deliveries — timestamped at the epoch's end cycle (one
    microsecond per network cycle), so channel time-series land in the
    same trace file as the spans.  No-op (returns 0) while observability
    is off.
    """
    from repro import obs

    if not obs.is_enabled():
        return 0
    summary = TelemetrySummary(snapshot)
    if summary.epochs == 0:
        return 0
    peaks = summary.max_depth_per_epoch()
    links = max(snapshot["links"], 1)
    window = float(snapshot["epoch_cycles"])
    link_of = np.asarray(snapshot["link_of"])
    link_mask = link_of >= 0
    emitted = 0
    for epoch in range(summary.epochs):
        cycles = snapshot["epoch_lengths"][epoch] or 1
        busy = summary.busy[epoch]
        mean_rho = float(busy[link_mask].sum()) / (links * cycles)
        end_cycle = snapshot["epoch_starts"][epoch] + cycles
        obs.trace_counter(
            "fabric.telemetry",
            float(end_cycle),
            {
                "mean_link_rho": round(mean_rho, 6),
                "max_queue_depth": int(peaks[epoch]),
                "delivered": int(snapshot["epoch_delivered"][epoch]),
            },
        )
        emitted += 1
    return emitted


# ----------------------------------------------------------------------
# The probe driver: fabric-level workloads under telemetry.
# ----------------------------------------------------------------------

#: Fabric-level probe workloads (the benchmark suite's shapes): ``rate``
#: is mean injection attempts per cycle machine-wide, ``hot`` the
#: fraction aimed at the ``hot_count`` lowest-numbered nodes, ``data``
#: switches to long data replies.  ``tree_saturation`` is the canonical
#: congestion stress: one hot ejection port grows blocked-channel trees
#: across the fabric.
PROBE_WORKLOADS: Dict[str, Dict] = {
    "uniform": dict(rate=0.4, hot=0.0, hot_count=4, data=False),
    "saturated": dict(rate=2.0, hot=0.0, hot_count=4, data=False),
    "hotspot50": dict(rate=1.5, hot=0.5, hot_count=4, data=True),
    "tree_saturation": dict(rate=1.5, hot=1.0, hot_count=1, data=True),
}


def probe_schedule(
    radix: int,
    dimensions: int,
    cycles: int,
    workload: str,
    seed: int = 1992,
) -> List[List[Tuple]]:
    """Pre-generated per-cycle injection plan for one probe workload."""
    import random

    from repro.sim.message import MessageKind

    spec = PROBE_WORKLOADS.get(workload)
    if spec is None:
        known = ", ".join(sorted(PROBE_WORKLOADS))
        raise ParameterError(f"unknown workload {workload!r}; known: {known}")
    rng = random.Random(seed)
    nodes = radix**dimensions
    hot_nodes = tuple(range(min(spec["hot_count"], nodes)))
    kind = (
        MessageKind.DATA_REPLY if spec["data"] else MessageKind.READ_REQUEST
    )
    whole, fractional = divmod(spec["rate"], 1)
    plan: List[List[Tuple]] = []
    tag = 0
    for _ in range(cycles):
        injections = []
        attempts = int(whole) + (1 if rng.random() < fractional else 0)
        for _ in range(attempts):
            source = rng.randrange(nodes)
            if rng.random() < spec["hot"]:
                destination = rng.choice(hot_nodes)
            else:
                destination = rng.randrange(nodes)
            if source != destination:
                injections.append((kind, source, destination, tag))
                tag += 1
        plan.append(injections)
    return plan


@dataclass
class ProbeResult:
    """Everything one probe run measured."""

    workload: str
    radix: int
    dimensions: int
    scheduled_cycles: int
    total_cycles: int
    injected: int
    delivered: int
    mean_hops: Optional[float]
    mean_flits: Optional[float]
    message_rate: Optional[float]
    snapshot: Dict
    saturation: SaturationReport

    @property
    def summary(self) -> TelemetrySummary:
        return TelemetrySummary(self.snapshot)


def run_probe(
    workload: str,
    radix: int = 8,
    dimensions: int = 2,
    cycles: int = 600,
    telemetry: Optional[TelemetryConfig] = None,
    seed: int = 1992,
) -> ProbeResult:
    """Drive one fabric-level workload under telemetry and report.

    Injects the seeded schedule, ticks until the fabric drains, and
    returns the telemetry snapshot plus the measured traffic parameters
    (message rate per node per cycle, mean hops, mean flits) the
    analytical contention model needs for a model-vs-measured table.
    """
    from repro.sim.message import Message
    from repro.sim.wormhole import WormholeFabric
    from repro.topology.torus import Torus

    if radix < 2:
        raise ParameterError(f"radix must be >= 2, got {radix!r}")
    if cycles < 1:
        raise ParameterError(f"cycles must be >= 1, got {cycles!r}")
    if telemetry is None:
        telemetry = TelemetryConfig()
    plan = probe_schedule(radix, dimensions, cycles, workload, seed=seed)
    torus = Torus(radix=radix, dimensions=dimensions)
    delivered: List = []
    instance = WormholeFabric(torus, on_delivery=delivered.append)
    channels = instance.attach_telemetry(telemetry)
    injected = 0
    cycle = 0
    for cycle, injections in enumerate(plan):
        for kind, source, destination, tag in injections:
            instance.inject(
                Message(kind, source, destination, (0, 0), tag), cycle
            )
            injected += 1
        instance.tick(cycle)
    while not instance.quiescent():
        cycle += 1
        instance.tick(cycle)
        if cycle > cycles + 200000:
            raise SimulationError("probe fabric did not drain")
    total_cycles = cycle + 1
    channels.finalize(total_cycles)
    snapshot = channels.snapshot()
    hops = [worm.hops for worm in delivered]
    flits = [worm.message.flits for worm in delivered]
    nodes = torus.node_count
    return ProbeResult(
        workload=workload,
        radix=radix,
        dimensions=dimensions,
        scheduled_cycles=cycles,
        total_cycles=total_cycles,
        injected=injected,
        delivered=len(delivered),
        mean_hops=(sum(hops) / len(hops)) if hops else None,
        mean_flits=(sum(flits) / len(flits)) if flits else None,
        message_rate=(
            len(delivered) / (total_cycles * nodes) if delivered else None
        ),
        snapshot=snapshot,
        saturation=detect_saturation(TelemetrySummary(snapshot)),
    )
