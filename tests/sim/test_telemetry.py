"""Tests for the per-channel fabric telemetry layer.

Covers the accounting contract (busy flit-cycles reconcile with the
fabrics' own per-link counters), telemetry never perturbing results,
the epoch model under quiescent gaps, snapshot merging, saturation
detection, and the attachment surface on both fabrics.  The golden
fixture (``test_golden_parity.py``) pins the probe snapshots
bit-for-bit against recorded history.
"""

import copy
import json

import numpy as np
import pytest

from repro import obs
from repro.errors import ParameterError, SimulationError
from repro.mapping.strategies import random_mapping
from repro.sim.config import SimulationConfig
from repro.sim.cut_through import CutThroughFabric
from repro.sim.machine import Machine
from repro.sim.message import Message, MessageKind
from repro.sim.telemetry import (
    LATENCY_METRIC,
    WORM_LATENCY_BUCKETS,
    FabricTelemetry,
    TelemetryConfig,
    TelemetrySummary,
    emit_trace_counters,
    merge_snapshots,
    probe_schedule,
    run_probe,
    write_telemetry_jsonl,
)
from repro.sim.wormhole import WormholeFabric
from repro.topology.graphs import torus_neighbor_graph
from repro.topology.torus import Torus
from repro.workload.synthetic import build_programs


def drive_fabric(
    fabric_cls, workload="uniform", radix=4, cycles=200, epoch=32, seed=7
):
    """Inject a probe schedule into a bare fabric and drain it."""
    torus = Torus(radix=radix, dimensions=2)
    delivered = []
    fabric = fabric_cls(torus, on_delivery=delivered.append)
    telemetry = fabric.attach_telemetry(TelemetryConfig(epoch_cycles=epoch))
    plan = probe_schedule(radix, 2, cycles, workload, seed=seed)
    cycle = 0
    for cycle, injections in enumerate(plan):
        for kind, source, destination, tag in injections:
            fabric.inject(Message(kind, source, destination, (0, 0), tag), cycle)
        fabric.tick(cycle)
    while not fabric.quiescent():
        cycle += 1
        fabric.tick(cycle)
    telemetry.finalize(cycle + 1)
    return fabric, telemetry, delivered


def machine_setup(radix=4, contexts=2, **overrides):
    config = SimulationConfig(
        radix=radix, dimensions=2, contexts=contexts,
        warmup_network_cycles=300, measure_network_cycles=1200,
        **overrides,
    )
    graph = torus_neighbor_graph(radix, 2)
    programs = build_programs(
        graph, contexts, config.compute_cycles, config.compute_jitter
    )
    mapping = random_mapping(config.node_count, seed=radix)
    return config, mapping, programs


class TestConfig:
    def test_defaults(self):
        config = TelemetryConfig()
        assert config.epoch_cycles == 256
        assert config.depth_threshold == 8

    def test_rejects_non_positive_epoch(self):
        with pytest.raises(ParameterError):
            TelemetryConfig(epoch_cycles=0)

    def test_rejects_non_positive_threshold(self):
        with pytest.raises(ParameterError):
            TelemetryConfig(depth_threshold=0)

    def test_as_dict_is_json_serializable(self):
        data = TelemetryConfig(epoch_cycles=64).as_dict()
        assert json.loads(json.dumps(data)) == data
        assert data["epoch_cycles"] == 64
        assert data["latency_buckets"] == list(WORM_LATENCY_BUCKETS)


class TestAccounting:
    """Busy counters must reconcile with the fabric's own books."""

    @pytest.mark.parametrize("fabric_cls", [WormholeFabric, CutThroughFabric])
    def test_link_busy_matches_link_flit_counters(self, fabric_cls):
        # Grouping per-channel busy totals by physical link must
        # reproduce the per-link flit counters exactly: both book the
        # message's flits at acquisition time.
        fabric, telemetry, _ = drive_fabric(fabric_cls)
        snapshot = telemetry.snapshot()
        busy = TelemetrySummary(snapshot).channel_busy_total()
        per_link = {}
        keys = snapshot["link_keys"]
        for channel, link in enumerate(snapshot["link_of"]):
            if link >= 0:
                key = tuple(keys[link])
                per_link[key] = per_link.get(key, 0) + int(busy[channel])
        flits = fabric.link_flits
        for key, total in per_link.items():
            assert total == flits.get(key, 0)

    def test_busy_matrix_sums_to_channel_totals(self):
        # finalize closes the trailing partial epoch, so nothing the
        # channels saw can be missing from the per-epoch matrix.
        _, telemetry, _ = drive_fabric(WormholeFabric)
        summary = telemetry.summary()
        assert summary.busy.sum(axis=0).tolist() == telemetry.channel_flits

    def test_latency_histogram_counts_every_delivery(self):
        _, telemetry, delivered = drive_fabric(WormholeFabric)
        snapshot = telemetry.snapshot()
        assert delivered
        assert snapshot["delivered"] == len(delivered)
        assert snapshot["latency"]["count"] == len(delivered)
        assert sum(snapshot["epoch_delivered"]) == len(delivered)
        assert snapshot["latency"]["sum"] > 0

    def test_channel_utilization_bounded(self):
        _, telemetry, _ = drive_fabric(WormholeFabric)
        rho = telemetry.summary().channel_utilization()
        assert (rho >= 0).all()
        assert (rho <= 1.0 + 1e-9).all()

    def test_link_utilization_sums_virtual_channels(self):
        _, telemetry, _ = drive_fabric(WormholeFabric)
        summary = telemetry.summary()
        per_link = summary.link_utilization()
        assert len(per_link) == summary.data["links"]
        # Total link-channel utilization mass is preserved by the VC sum.
        link_mask = np.asarray(summary.data["link_of"]) >= 0
        expected = summary.channel_utilization()[link_mask].sum()
        assert sum(per_link.values()) == pytest.approx(expected)


class TestParity:
    """Telemetry observes; it must never perturb simulation results."""

    def test_telemetry_does_not_change_results(self):
        # The instrumentation observes; it must never perturb.
        bare = run_probe("hotspot50", radix=4, cycles=200)
        delivered = []
        plain = WormholeFabric(
            Torus(radix=4, dimensions=2), on_delivery=delivered.append
        )
        plan = probe_schedule(4, 2, 200, "hotspot50")
        cycle = 0
        for cycle, injections in enumerate(plan):
            for kind, source, destination, tag in injections:
                plain.inject(
                    Message(kind, source, destination, (0, 0), tag), cycle
                )
            plain.tick(cycle)
        while not plain.quiescent():
            cycle += 1
            plain.tick(cycle)
        assert bare.delivered == len(delivered)
        assert bare.total_cycles == cycle + 1
        assert plain.link_flits  # both ran real traffic

    def test_machine_summary_identical_with_and_without_telemetry(self):
        config, mapping, programs = machine_setup()
        without = Machine(config, mapping, copy.deepcopy(programs)).run()
        machine = Machine(config, mapping, copy.deepcopy(programs))
        machine.attach_telemetry(TelemetryConfig(epoch_cycles=128))
        with_telemetry = machine.run()
        assert with_telemetry.as_dict() == without.as_dict()
        assert without.telemetry is None
        assert with_telemetry.telemetry is not None
        assert with_telemetry.telemetry["delivered"] > 0


class TestEpochModel:
    def test_epoch_geometry(self):
        _, telemetry, _ = drive_fabric(WormholeFabric, cycles=200, epoch=32)
        snapshot = telemetry.snapshot()
        starts = snapshot["epoch_starts"]
        lengths = snapshot["epoch_lengths"]
        assert starts[0] == 0
        for previous, current in zip(starts, starts[1:]):
            assert current > previous
        assert all(1 <= length <= 32 for length in lengths)
        assert starts[-1] + lengths[-1] == snapshot["total_cycles"]

    def test_quiescent_gap_closes_intermediate_epochs(self):
        # One worm, then silence: the quiescent fast-forward must still
        # close every epoch the idle cycles span, with zero busy deltas.
        torus = Torus(radix=4, dimensions=2)
        fabric = WormholeFabric(torus, on_delivery=lambda worm: None)
        telemetry = fabric.attach_telemetry(TelemetryConfig(epoch_cycles=16))
        fabric.inject(
            Message(MessageKind.READ_REQUEST, 0, 1, (0, 0), 0), 0
        )
        for cycle in range(101):
            fabric.tick(cycle)
        telemetry.finalize(101)
        snapshot = telemetry.snapshot()
        # Boundaries at 16, 32, ..., 96 plus the partial [96, 101).
        assert snapshot["epoch_starts"] == [0, 16, 32, 48, 64, 80, 96]
        assert snapshot["epoch_lengths"] == [16, 16, 16, 16, 16, 16, 5]
        busy = np.asarray(snapshot["busy"])
        assert busy[0].sum() > 0  # the worm's grants
        assert busy[2:].sum() == 0  # quiescent epochs saw nothing
        assert snapshot["delivered"] == 1

    def test_finalize_is_idempotent(self):
        _, telemetry, _ = drive_fabric(WormholeFabric)
        before = telemetry.snapshot()
        telemetry.finalize(before["total_cycles"] + 500)
        assert telemetry.snapshot() == before

    def test_finalize_folds_latency_into_registry(self):
        registered = obs.REGISTRY.get(LATENCY_METRIC)
        baseline = registered.count if registered is not None else 0
        _, telemetry, delivered = drive_fabric(WormholeFabric)
        histogram = obs.REGISTRY.get(LATENCY_METRIC)
        assert histogram is not None
        assert histogram.count == baseline + len(delivered)

    def test_snapshot_before_finalize_raises(self):
        torus = Torus(radix=4, dimensions=2)
        fabric = WormholeFabric(torus, on_delivery=lambda worm: None)
        telemetry = fabric.attach_telemetry(TelemetryConfig())
        with pytest.raises(SimulationError):
            telemetry.snapshot()


class TestAttachment:
    def test_attach_twice_raises(self):
        torus = Torus(radix=4, dimensions=2)
        fabric = WormholeFabric(torus, on_delivery=lambda worm: None)
        fabric.attach_telemetry(TelemetryConfig())
        with pytest.raises(SimulationError):
            fabric.attach_telemetry(TelemetryConfig())

    @pytest.mark.parametrize("switching", ["cut_through", "wormhole"])
    def test_machine_attach_covers_both_switch_modes(self, switching):
        config, mapping, programs = machine_setup(switching=switching)
        machine = Machine(config, mapping, programs)
        instrumentation = machine.attach_telemetry(
            TelemetryConfig(epoch_cycles=128)
        )
        assert isinstance(instrumentation, FabricTelemetry)
        summary = machine.run(warmup=100, measure=400)
        assert summary.telemetry is not None
        assert summary.telemetry["total_cycles"] == 500
        assert summary.telemetry["label"] == switching

    def test_summary_as_dict_excludes_telemetry(self):
        # The replication aggregator averages scalars; the structured
        # snapshot must never leak into that path.
        config, mapping, programs = machine_setup()
        machine = Machine(config, mapping, programs)
        machine.attach_telemetry(TelemetryConfig(epoch_cycles=128))
        summary = machine.run(warmup=100, measure=400)
        assert "telemetry" not in summary.as_dict()


class TestMerge:
    def test_merge_adds_busy_and_peaks_depth(self):
        _, first, _ = drive_fabric(WormholeFabric, seed=7)
        _, second, _ = drive_fabric(WormholeFabric, seed=8)
        a, b = first.snapshot(), second.snapshot()
        merged = merge_snapshots([a, b])
        epochs = max(len(a["busy"]), len(b["busy"]))

        def padded(rows):
            matrix = np.zeros((epochs, a["channels"]), dtype=np.int64)
            matrix[: len(rows)] = np.asarray(rows)
            return matrix

        assert np.array_equal(
            np.asarray(merged["busy"]), padded(a["busy"]) + padded(b["busy"])
        )
        assert np.array_equal(
            np.asarray(merged["depth"]),
            np.maximum(padded(a["depth"]), padded(b["depth"])),
        )
        assert merged["delivered"] == a["delivered"] + b["delivered"]
        assert merged["total_cycles"] == a["total_cycles"] + b["total_cycles"]
        assert merged["latency"]["count"] == (
            a["latency"]["count"] + b["latency"]["count"]
        )
        assert merged["latency"]["counts"] == [
            x + y for x, y in zip(a["latency"]["counts"], b["latency"]["counts"])
        ]
        assert merged["label"] == "merged[2x wormhole]"

    def test_merge_of_one_keeps_the_numbers(self):
        _, telemetry, _ = drive_fabric(WormholeFabric)
        snapshot = telemetry.snapshot()
        merged = merge_snapshots([snapshot])
        assert merged["busy"] == snapshot["busy"]
        assert merged["delivered"] == snapshot["delivered"]

    def test_merge_rejects_empty(self):
        with pytest.raises(ParameterError):
            merge_snapshots([])

    def test_merge_rejects_mismatched_geometry(self):
        _, a, _ = drive_fabric(WormholeFabric, radix=4)
        _, b, _ = drive_fabric(WormholeFabric, radix=8, cycles=50)
        with pytest.raises(ParameterError, match="disagree"):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_merge_rejects_mismatched_epoch_length(self):
        _, a, _ = drive_fabric(WormholeFabric, epoch=32)
        _, b, _ = drive_fabric(WormholeFabric, epoch=64)
        with pytest.raises(ParameterError, match="epoch_cycles"):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_merge_rejects_mismatched_latency_buckets(self):
        _, a, _ = drive_fabric(WormholeFabric)
        first, second = a.snapshot(), a.snapshot()
        second["latency"] = dict(second["latency"])
        second["latency"]["buckets"] = [1, 2, 3]
        second["latency"]["counts"] = [0, 0, 0, 0]
        with pytest.raises(ParameterError, match="latency buckets"):
            merge_snapshots([first, second])


class TestSummaryReads:
    def test_rejects_unknown_snapshot_version(self):
        _, telemetry, _ = drive_fabric(WormholeFabric)
        snapshot = telemetry.snapshot()
        snapshot["version"] = 999
        with pytest.raises(ParameterError, match="version"):
            TelemetrySummary(snapshot)

    def test_latency_mean_and_quantiles(self):
        _, telemetry, delivered = drive_fabric(WormholeFabric)
        summary = telemetry.summary()
        latencies = [
            worm.message.delivered_at - worm.message.injected_at
            for worm in delivered
        ]
        assert summary.latency_mean() == pytest.approx(
            sum(latencies) / len(latencies)
        )
        median = summary.latency_quantile(0.5)
        p99 = summary.latency_quantile(0.99)
        assert median is not None and p99 is not None
        assert median <= p99
        # The covering bucket's bound is >= the true quantile.
        latencies.sort()
        assert median >= latencies[(len(latencies) - 1) // 2]

    def test_latency_quantile_validates_range(self):
        _, telemetry, _ = drive_fabric(WormholeFabric)
        with pytest.raises(ParameterError):
            telemetry.summary().latency_quantile(1.5)

    def test_empty_window_reads_as_zeros(self):
        torus = Torus(radix=4, dimensions=2)
        fabric = WormholeFabric(torus, on_delivery=lambda worm: None)
        telemetry = fabric.attach_telemetry(TelemetryConfig())
        telemetry.finalize(0)
        summary = telemetry.summary()
        assert summary.epochs == 0
        assert summary.channel_busy_total().sum() == 0
        assert summary.channel_utilization().sum() == 0.0
        assert summary.latency_mean() is None
        assert summary.latency_quantile(0.5) is None
        assert summary.max_depth_per_epoch().size == 0
        assert summary.saturated_extent_per_epoch(1).size == 0


class TestSaturation:
    def test_tree_saturation_workload_saturates(self):
        result = run_probe(
            "tree_saturation", radix=4, cycles=300,
            telemetry=TelemetryConfig(epoch_cycles=32),
        )
        report = result.saturation
        assert report.saturated
        assert report.onset_epoch is not None
        summary = result.summary
        starts = summary.epoch_starts
        lengths = summary.data["epoch_lengths"]
        assert report.onset_cycle == (
            starts[report.onset_epoch] + lengths[report.onset_epoch]
        )
        assert report.peak_extent >= 1
        assert "onset" in report.render()
        assert report.as_dict()["saturated"] is True

    def test_light_traffic_does_not_saturate(self):
        result = run_probe(
            "uniform", radix=4, cycles=200,
            telemetry=TelemetryConfig(epoch_cycles=32, depth_threshold=64),
        )
        report = result.saturation
        assert not report.saturated
        assert report.onset_epoch is None and report.onset_cycle is None
        assert "no tree saturation" in report.render()


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        _, telemetry, _ = drive_fabric(WormholeFabric)
        snapshot = telemetry.snapshot()
        path = write_telemetry_jsonl(snapshot, str(tmp_path / "t.jsonl"))
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
            if line.strip()
        ]
        header, *body = lines
        assert header["kind"] == "telemetry"
        assert header["channels"] == snapshot["channels"]
        epochs = [line for line in body if line["kind"] == "epoch"]
        assert len(epochs) == len(snapshot["busy"])
        assert epochs[0]["busy"] == snapshot["busy"][0]
        assert body[-1]["kind"] == "latency"
        assert body[-1]["count"] == snapshot["latency"]["count"]

    def test_trace_counters_no_op_when_disabled(self):
        _, telemetry, _ = drive_fabric(WormholeFabric)
        obs._STATE.enabled = False
        assert emit_trace_counters(telemetry.snapshot()) == 0

    def test_trace_counters_emit_per_epoch(self):
        _, telemetry, _ = drive_fabric(WormholeFabric)
        snapshot = telemetry.snapshot()
        enabled_before = obs.is_enabled()
        obs.enable()
        obs.reset()
        try:
            emitted = emit_trace_counters(snapshot)
            assert emitted == len(snapshot["busy"])
            events = obs.trace().chrome_trace_events()
            counters = [e for e in events if e["ph"] == "C"]
            assert len(counters) == emitted
            assert counters[0]["name"] == "fabric.telemetry"
            assert set(counters[0]["args"]) == {
                "mean_link_rho", "max_queue_depth", "delivered",
            }
        finally:
            obs.reset()
            if not enabled_before:
                obs._STATE.enabled = False


class TestProbe:
    @pytest.mark.parametrize("sizes, message", [
        ({"radix": 1}, "radix must be >= 2, got 1"),
        ({"cycles": 0}, "cycles must be >= 1, got 0"),
    ])
    def test_run_probe_rejects_invalid_sizes(self, sizes, message):
        with pytest.raises(ParameterError, match=message):
            run_probe("uniform", **sizes)

    def test_probe_schedule_rejects_unknown_workload(self):
        with pytest.raises(ParameterError, match="unknown workload"):
            probe_schedule(4, 2, 10, "bogus")

    def test_probe_schedule_is_deterministic(self):
        assert probe_schedule(4, 2, 50, "hotspot50", seed=3) == probe_schedule(
            4, 2, 50, "hotspot50", seed=3
        )

    def test_probe_result_carries_traffic_parameters(self):
        result = run_probe(
            "uniform", radix=4, cycles=200,
            telemetry=TelemetryConfig(epoch_cycles=32),
        )
        assert result.injected >= result.delivered > 0
        assert result.mean_hops > 0
        assert result.mean_flits > 0
        assert result.message_rate == pytest.approx(
            result.delivered / (result.total_cycles * 16)
        )
        assert result.total_cycles >= result.scheduled_cycles
