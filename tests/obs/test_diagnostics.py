"""Tests for solver convergence diagnostics and the diagnose report."""

from repro import obs
from repro.core.combined import solve, solve_batch
from repro.core.network import TorusNetworkModel
from repro.core.node import NodeModel
from repro.obs.diagnostics import SolveDiagnostics, SolveRecord, render_diagnosis


def alewife_like_models():
    node = NodeModel(
        sensitivity=3.2, intercept=100.0, messages_per_transaction=3.2
    )
    network = TorusNetworkModel(dimensions=2, message_size=12.0)
    return node, network


class TestCollection:
    def test_disabled_solve_records_nothing(self):
        node, network = alewife_like_models()
        solve(node, network, distance=3.0)
        assert len(obs.diagnostics()) == 0

    def test_scalar_solve_records_convergence(self):
        obs.enable()
        obs.reset()
        node, network = alewife_like_models()
        solve(node, network, distance=3.0)
        records = obs.diagnostics().records
        assert len(records) == 1
        (record,) = records
        assert record.kind == "scalar"
        assert record.branch in ("linear", "bisection")
        assert record.distance == 3.0
        if record.branch == "bisection":
            assert 1 <= record.iterations <= 200
            assert record.bracket_width >= 0.0
        assert 0.0 <= record.utilization <= 1.0

    def test_batch_solve_records_one_per_lane(self):
        obs.enable()
        obs.reset()
        node, network = alewife_like_models()
        distances = [2.0, 3.0, 4.0, 5.0]
        solve_batch(node, network, distances)
        records = obs.diagnostics().records
        assert len(records) == len(distances)
        assert all(r.kind == "batch" for r in records)
        assert sorted(r.distance for r in records) == distances

    def test_batch_matches_scalar_branches(self):
        node, network = alewife_like_models()
        distances = [2.0, 4.0, 6.0]
        obs.enable()
        obs.reset()
        for d in distances:
            solve(node, network, d)
        scalar = {r.distance: r for r in obs.diagnostics().records}
        obs.reset()
        solve_batch(node, network, distances)
        batch = {r.distance: r for r in obs.diagnostics().records}
        for d in distances:
            assert scalar[d].branch == batch[d].branch

    def test_capacity_counts_drops(self):
        diagnostics = SolveDiagnostics()
        diagnostics.capacity = 2
        for _ in range(5):
            diagnostics.record("scalar", "bisection", 1.0, iterations=44)
        assert len(diagnostics) == 2
        assert diagnostics.dropped == 3

    def test_record_round_trips_as_dict(self):
        record = SolveRecord(
            kind="scalar", branch="bisection", distance=4.0, iterations=45,
            bracket_width=1e-13, residual=2e-12, message_rate=0.01,
            utilization=0.42,
        )
        assert SolveRecord.from_dict(record.as_dict()) == record


class TestFlagging:
    def test_healthy_records_not_flagged(self):
        diagnostics = SolveDiagnostics()
        diagnostics.record(
            "scalar", "bisection", 3.0, iterations=45, utilization=0.4
        )
        assert diagnostics.flagged() == []

    def test_near_nonconvergent_flagged(self):
        diagnostics = SolveDiagnostics()
        diagnostics.record(
            "scalar", "bisection", 3.0, iterations=180, utilization=0.4
        )
        ((record, reasons),) = diagnostics.flagged()
        assert record.iterations == 180
        assert any("near-non-convergent" in reason for reason in reasons)

    def test_saturated_utilization_flagged(self):
        diagnostics = SolveDiagnostics()
        diagnostics.record(
            "batch", "bisection", 500.0, iterations=44, utilization=0.98
        )
        ((_, reasons),) = diagnostics.flagged(utilization_threshold=0.95)
        assert any("saturated" in reason for reason in reasons)

    def test_threshold_is_respected(self):
        diagnostics = SolveDiagnostics()
        diagnostics.record(
            "batch", "bisection", 500.0, iterations=44, utilization=0.98
        )
        assert diagnostics.flagged(utilization_threshold=0.99) == []

    def test_saturation_branch_flagged(self):
        diagnostics = SolveDiagnostics()
        diagnostics.record("scalar", "saturation", 9.0)
        ((_, reasons),) = diagnostics.flagged()
        assert any("branch" in reason for reason in reasons)

    def test_iteration_stats_cover_bisection_only(self):
        diagnostics = SolveDiagnostics()
        diagnostics.record("scalar", "linear", 1.0, iterations=0)
        assert diagnostics.iteration_stats() is None
        diagnostics.record("scalar", "bisection", 2.0, iterations=40)
        diagnostics.record("scalar", "bisection", 3.0, iterations=50)
        stats = diagnostics.iteration_stats()
        assert stats == {"min": 40, "median": 45, "max": 50}


class TestRendering:
    def test_render_includes_branches_iterations_and_flags(self):
        diagnostics = SolveDiagnostics()
        diagnostics.record(
            "scalar", "bisection", 3.0, iterations=45, utilization=0.4
        )
        diagnostics.record(
            "batch", "bisection", 500.0, iterations=44, utilization=0.98
        )
        report = render_diagnosis(
            diagnostics, "figure-3",
            perf_delta={"solve_calls": 1, "batch_solves": 1,
                        "batch_points": 1},
        )
        assert "diagnose figure-3" in report
        assert "bisection 2" in report
        assert "1 solve(s) flagged" in report
        assert "rho = 0.980" in report

    def test_render_reports_no_flags(self):
        diagnostics = SolveDiagnostics()
        diagnostics.record(
            "scalar", "bisection", 3.0, iterations=45, utilization=0.4
        )
        report = render_diagnosis(diagnostics, "table-1")
        assert "flags              : none" in report
