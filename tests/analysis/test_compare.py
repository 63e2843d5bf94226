"""Tests for the describe card and the model-vs-measured contention rows."""

import pytest

from repro.analysis.compare import (
    ContentionComparison,
    ContentionRow,
    contention_row,
)
from repro.core.network import TorusNetworkModel
from repro.errors import ParameterError
from repro.experiments.alewife import alewife_system
from repro.sim.telemetry import TelemetryConfig, TelemetrySummary, run_probe


class TestDescribe:
    def test_card_contains_all_parameters(self):
        text = alewife_system(contexts=2).describe()
        assert "p = 2" in text
        assert "g = 3.2" in text
        assert "2-D torus" in text
        assert "B = 12" in text
        assert "s = 3.26" in text
        assert "9.78" in text  # the Eq 16 limit

    def test_extensions_flagged(self):
        from repro.experiments.alewife import alewife_validation_system

        base = alewife_system(contexts=1).describe()
        validation = alewife_validation_system(contexts=1).describe()
        assert "node-channel contention" not in base
        assert "node-channel contention" in validation


def probe_telemetry():
    result = run_probe(
        "uniform", radix=4, cycles=200,
        telemetry=TelemetryConfig(epoch_cycles=32),
    )
    network = TorusNetworkModel(dimensions=2, message_size=result.mean_flits)
    return result, network


class TestContentionRow:
    def test_measured_side_comes_from_link_telemetry(self):
        result, network = probe_telemetry()
        row = contention_row(
            "probe", network, result.snapshot,
            result.message_rate, result.mean_hops,
        )
        link_rho = list(result.summary.link_utilization().values())
        assert row.measured_rho_mean == pytest.approx(
            sum(link_rho) / len(link_rho)
        )
        assert row.measured_rho_peak == pytest.approx(max(link_rho))
        assert row.measured_latency == pytest.approx(
            result.summary.latency_mean()
        )
        assert row.messages == result.delivered
        assert row.hot_factor == pytest.approx(
            row.measured_rho_peak / row.measured_rho_mean
        )
        assert row.hot_factor >= 1.0

    def test_model_side_is_eq10_at_measured_operating_point(self):
        result, network = probe_telemetry()
        row = contention_row(
            "probe", network, result.snapshot,
            result.message_rate, result.mean_hops,
        )
        assert row.model_rho == pytest.approx(
            network.channel_utilization(result.message_rate, result.mean_hops)
        )
        assert row.rho_error == pytest.approx(
            row.model_rho - row.measured_rho_mean
        )
        assert row.rho_relative_error == pytest.approx(
            row.rho_error / row.measured_rho_mean
        )

    def test_accepts_summary_or_snapshot(self):
        result, network = probe_telemetry()
        from_dict = contention_row(
            "x", network, result.snapshot, result.message_rate,
            result.mean_hops,
        )
        from_summary = contention_row(
            "x", network, TelemetrySummary(result.snapshot),
            result.message_rate, result.mean_hops,
        )
        assert from_dict == from_summary

    def test_saturated_operating_point_has_no_model_latency(self):
        result, network = probe_telemetry()
        row = contention_row(
            "hot", network, result.snapshot,
            message_rate=10.0, distance=result.mean_hops,
        )
        assert row.model_latency is None
        assert row.model_rho > 0

    def test_rejects_telemetry_without_links(self):
        result, network = probe_telemetry()
        snapshot = dict(result.snapshot)
        snapshot["link_keys"] = []
        snapshot["links"] = 0
        snapshot["link_of"] = [-1] * snapshot["channels"]
        with pytest.raises(ParameterError, match="no physical links"):
            contention_row("bare", network, snapshot, 0.01, 2.0)

    def test_zero_measured_rho_degenerate_properties(self):
        row = ContentionRow(
            label="idle", message_rate=0.0, distance=1.0, model_rho=0.0,
            measured_rho_mean=0.0, measured_rho_peak=0.0,
            model_latency=None, measured_latency=None, messages=0,
        )
        assert row.rho_relative_error == 0.0
        assert row.hot_factor == 0.0


class TestContentionComparison:
    def test_render_tabulates_and_marks_saturation(self):
        result, network = probe_telemetry()
        rows = [
            contention_row(
                "16n", network, result.snapshot,
                result.message_rate, result.mean_hops,
            ),
            contention_row(
                "16n hot", network, result.snapshot, 10.0, result.mean_hops
            ),
        ]
        comparison = ContentionComparison(rows=rows)
        text = comparison.render()
        assert "rho meas" in text and "rho model" in text
        assert "16n" in text
        assert "saturated" in text  # the past-saturation model column
