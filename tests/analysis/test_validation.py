"""Tests for the Section 3.3 validation pipeline (quick windows)."""

import copy

import pytest

from repro import obs
from repro.analysis.validation import run_validation, simulate_mapping_suite
from repro.mapping.families import NamedMapping, paper_mapping_suite
from repro.mapping.strategies import identity_mapping, random_mapping
from repro.sim import batchcore
from repro.sim.batch import BatchFallbackWarning
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.topology.graphs import torus_neighbor_graph
from repro.topology.torus import Torus
from repro.workload.synthetic import build_programs


@pytest.fixture(scope="module")
def quick_config():
    return SimulationConfig(
        radix=4,
        dimensions=2,
        contexts=1,
        warmup_network_cycles=800,
        measure_network_cycles=4000,
    )


@pytest.fixture(scope="module")
def small_mappings():
    torus = Torus(radix=4, dimensions=2)
    return paper_mapping_suite(torus, adversarial_steps=800)


@pytest.fixture(scope="module")
def report(quick_config, small_mappings):
    return run_validation(quick_config, small_mappings)


class TestSimulateMappingSuite:
    def test_one_point_per_mapping(self, quick_config, small_mappings):
        points = simulate_mapping_suite(quick_config, small_mappings)
        assert len(points) == len(small_mappings)

    def test_measured_hops_track_mapping_distance(
        self, quick_config, small_mappings
    ):
        points = simulate_mapping_suite(quick_config, small_mappings)
        for named, point in zip(small_mappings, points):
            assert point.summary.mean_message_hops == pytest.approx(
                named.distance, abs=0.35
            )


def serial_points(config, mappings):
    """The oracle: one solo Machine per mapping, as summary dicts."""
    graph = torus_neighbor_graph(config.radix, config.dimensions)
    programs = build_programs(
        graph, config.contexts, config.compute_cycles, config.compute_jitter
    )
    return [
        Machine(config, named.mapping, copy.deepcopy(programs))
        .run()
        .as_dict()
        for named in mappings
    ]


class TestSuiteParity:
    """simulate_mapping_suite runs on the compiled core (or, without it,
    serial machines); the solo Machine is the oracle either way."""

    def test_points_match_serial_machines(
        self, quick_config, small_mappings
    ):
        points = simulate_mapping_suite(quick_config, small_mappings)
        assert [p.name for p in points] == [m.name for m in small_mappings]
        assert [p.summary.as_dict() for p in points] == serial_points(
            quick_config, small_mappings
        )

    def test_core_unavailable_falls_back_loudly(
        self, monkeypatch, quick_config, small_mappings
    ):
        monkeypatch.setattr(batchcore, "load", lambda: None)
        counter = obs.REGISTRY.counter("batch.fallback")
        before = counter.value
        with pytest.warns(BatchFallbackWarning) as caught:
            points = simulate_mapping_suite(quick_config, small_mappings[:1])
        assert len(caught) == 1
        assert counter.value == before + 1
        assert [p.summary.as_dict() for p in points] == serial_points(
            quick_config, small_mappings[:1]
        )

    def test_books_simulated_cycles_when_observed(
        self, quick_config, small_mappings
    ):
        counter = obs.REGISTRY.counter("sim.cycles")
        was_enabled = obs.is_enabled()
        obs.enable()
        try:
            before = counter.value
            simulate_mapping_suite(quick_config, small_mappings)
            booked = counter.value - before
        finally:
            if not was_enabled:
                obs._STATE.enabled = False
        window = (
            quick_config.warmup_network_cycles
            + quick_config.measure_network_cycles
        )
        assert booked == len(small_mappings) * window


class TestRunValidation:
    def test_report_shape(self, report, small_mappings):
        assert report.contexts == 1
        assert len(report.rows) == len(small_mappings)

    def test_fitted_slope_positive_and_reasonable(self, report):
        # Expected s = g/c ~ 1.5 for one context; allow a broad band for
        # the short measurement window.
        assert 0.8 < report.curve.sensitivity < 3.0

    def test_message_size_near_twelve_flits(self, report):
        assert 10.0 < report.message_size < 14.0

    def test_rate_predictions_in_band(self, report):
        # Full-length runs hold ~5-10% at one context; the quick window
        # and 16-node machine loosen it somewhat.
        assert report.mean_rate_error < 0.25
        assert report.max_rate_error < 0.45

    def test_latency_tracking(self, report):
        assert report.max_latency_error_cycles < 15.0

    def test_errors_reported_signed(self, report):
        row = report.rows[0]
        reconstructed = (
            row.predicted.message_rate - row.simulated.message_rate
        ) / row.simulated.message_rate
        assert row.rate_error == pytest.approx(reconstructed)

    def test_rejects_single_mapping(self, quick_config):
        only = [
            NamedMapping("ideal", identity_mapping(16), 1.0),
        ]
        with pytest.raises(Exception):
            run_validation(quick_config, only)
