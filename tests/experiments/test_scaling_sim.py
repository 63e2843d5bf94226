"""Tests for the simulated machine-size scaling experiment."""

import pytest

from repro.experiments.scaling_sim import run
from repro.experiments.validation_data import validation_report


@pytest.fixture(scope="module")
def result():
    validation_report.cache_clear()
    try:
        yield run(quick=True)
    finally:
        validation_report.cache_clear()


class TestScalingSim:
    def test_distance_rises_with_machine_size(self, result):
        distances = result.data["distance"]
        assert all(b > a for a, b in zip(distances, distances[1:]))

    def test_utilization_rises_with_machine_size(self, result):
        rhos = result.data["rho"]
        assert all(b > a for a, b in zip(rhos, rhos[1:]))

    def test_latency_rises_with_machine_size(self, result):
        latencies = result.data["t_m_sim"]
        assert all(b > a for a, b in zip(latencies, latencies[1:]))

    def test_model_tracks_simulation(self, result):
        for sim, model in zip(result.data["t_m_sim"], result.data["t_m_model"]):
            assert model == pytest.approx(sim, rel=0.35)

    def test_registered(self):
        from repro.experiments.runner import experiment_ids

        assert "scaling-sim" in experiment_ids()

    def test_no_contention_table_without_telemetry(self, result):
        assert len(result.tables) == 1
        assert "contention" not in result.render()


class TestScalingSimTelemetry:
    @pytest.fixture(scope="class")
    def telemetry_result(self):
        validation_report.cache_clear()
        try:
            yield run(quick=True, telemetry=True)
        finally:
            validation_report.cache_clear()

    def test_appends_contention_table(self, telemetry_result):
        assert len(telemetry_result.tables) == 2
        text = telemetry_result.render()
        assert "Model vs measured contention" in text
        assert "rho meas" in text and "rho model" in text
        # One row per swept radix (quick sweep: 4 and 8).
        assert "16n radix-4" in text
        assert "64n radix-8" in text

    def test_point_estimates_unchanged_by_telemetry(self, telemetry_result):
        validation_report.cache_clear()
        try:
            bare = run(quick=True)
        finally:
            validation_report.cache_clear()
        assert telemetry_result.data["t_m_sim"] == bare.data["t_m_sim"]
        assert telemetry_result.data["rho"] == bare.data["rho"]
