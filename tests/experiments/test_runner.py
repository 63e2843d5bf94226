"""Tests for the experiment registry and the analytic drivers.

The analytic experiments (Figures 6-8, Table 1, most ablations) run in
full here; the simulation-backed ones (Figures 3-5, buffering ablation)
are exercised through their quick modes in test_validation_experiments.
"""

import pytest

from repro.errors import ParameterError
from repro.experiments import fig6, fig7, fig8, table1
from repro.experiments.ablations import (
    run_clamp,
    run_dimension,
    run_feedback,
    run_node_channel,
)
from repro.experiments.runner import REGISTRY, experiment_ids, run_experiment


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        ids = experiment_ids()
        for required in (
            "figure-3", "figure-4", "figure-5", "figure-6", "figure-7",
            "figure-8", "table-1",
        ):
            assert required in ids

    def test_ablations_registered(self):
        assert sum(1 for i in experiment_ids() if i.startswith("ablation-")) >= 4

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ParameterError):
            run_experiment("figure-99")

    def test_registry_values_are_callables(self):
        assert all(callable(v) for v in REGISTRY.values())

    def test_telemetry_gate_names_the_supported_experiments(self):
        from repro.experiments.runner import TELEMETRY_RUNNERS

        assert "scaling-sim" in TELEMETRY_RUNNERS
        with pytest.raises(ParameterError, match="does not support"):
            run_experiment("figure-6", quick=True, telemetry=True)


class TestFigure6:
    def test_limit_and_approach(self):
        result = fig6.run(quick=True)
        assert result.data["limit"] == pytest.approx(9.78, abs=0.05)
        assert 1000 < result.data["eighty_percent_size"] < 10000

    def test_base_grain_approaches_faster(self):
        result = fig6.run(quick=True)
        # At every swept size the small-grain T_h >= the coarse-grain T_h.
        for base, coarse in zip(result.data["base"], result.data["coarse"]):
            assert base >= coarse - 1e-9

    def test_both_grains_reach_the_limit(self):
        result = fig6.run(quick=True)
        # The base grain is within 5% of the limit at the largest size;
        # the coarse grain starts below it and approaches more slowly.
        assert result.data["base"][-1] > 0.95 * result.data["limit"]
        assert result.data["coarse"][0] < result.data["base"][0]

    def test_render_contains_table(self):
        text = fig6.run(quick=True).render()
        assert "Per-hop latency vs machine size" in text


class TestFigure7:
    def test_landmarks(self):
        result = fig7.run(quick=True)
        gains = result.data["gains"]
        for p in (1, 2, 4):
            assert gains[p][0] == pytest.approx(1.0, abs=0.05)
            assert 35 < gains[p][-1] < 60

    def test_monotone_growth(self):
        result = fig7.run(quick=True)
        for p in (1, 2, 4):
            series = result.data["gains"][p]
            assert all(b >= a for a, b in zip(series, series[1:]))

    def test_curves_are_similar_near_a_thousand(self):
        # Full sweep: quick mode's size nearest 1,000 is 464.
        result = fig7.run()
        gains = result.data["gains"]
        for p in (1, 2, 4):
            assert 38 < gains[p][-1] < 57  # paper: 40-55 at a million
        # The paper's "strikingly similar" curves at N ~ 1,000.
        sizes = result.data["sizes"]
        nearest = min(range(len(sizes)), key=lambda i: abs(sizes[i] - 1000))
        at_thousand = [gains[p][nearest] for p in (1, 2, 4)]
        assert max(at_thousand) / min(at_thousand) < 1.15


class TestFigure8:
    def test_shares_and_structure(self):
        result = fig8.run()
        shares = result.data["fixed_transaction_share"]
        assert shares[(1, "ideal")] == pytest.approx(2 / 3, abs=0.05)
        # Six cases: ideal/random x p=1,2,4.
        assert len(shares) == 6

    def test_random_distance_matches_eq17(self):
        result = fig8.run()
        assert result.data["random_distance"] == pytest.approx(15.8, abs=0.1)


class TestTable1:
    def test_reproduces_paper_columns(self):
        result = table1.run()
        for factor, paper_thousand, paper_million in result.data["paper"]:
            ours = result.data["reproduced"][factor]
            assert ours[0] == pytest.approx(paper_thousand, rel=0.06)
            assert ours[1] == pytest.approx(paper_million, rel=0.06)


class TestAnalyticAblations:
    def test_feedback_ablation_runs(self):
        result = run_feedback()
        assert "saturated" in result.render()

    def test_clamp_ablation_runs(self):
        result = run_clamp()
        assert "clamp" in result.render().lower()

    def test_node_channel_ablation_runs(self):
        result = run_node_channel()
        assert result.tables

    def test_dimension_ablation_runs(self):
        result = run_dimension()
        assert result.tables


class TestParallelRunner:
    """run_all(jobs=N) must match the serial path result for result."""

    @pytest.fixture
    def small_registry(self, monkeypatch):
        # Restrict the campaign to cheap analytic experiments so the
        # serial-vs-parallel comparison stays fast; workers resolve the
        # identifiers against the real registry.
        from repro.experiments import runner

        subset = ["figure-6", "figure-7", "table-1"]
        monkeypatch.setattr(runner, "experiment_ids", lambda: subset)
        return subset

    def test_parallel_matches_serial(self, small_registry):
        from repro.experiments.runner import run_all

        serial = run_all(quick=True, jobs=1)
        parallel = run_all(quick=True, jobs=2)
        assert [r.experiment for r in serial] == small_registry
        assert [r.experiment for r in parallel] == small_registry
        for s, p in zip(serial, parallel):
            assert s.render() == p.render()

    def test_jobs_one_never_spawns_a_pool(self, small_registry, monkeypatch):
        from repro.core import pool
        from repro.experiments import runner

        def no_processes(*args, **kwargs):
            raise AssertionError("jobs=1 must not start a process")

        monkeypatch.setattr(pool, "ProcessPoolExecutor", no_processes)
        results = runner.run_all(quick=True, jobs=1)
        assert [r.experiment for r in results] == small_registry

    def test_pool_failure_falls_back_loudly(self, small_registry, monkeypatch):
        # Satellite contract: a degraded --jobs run is visible — the
        # pool.fallback counter moves and a PoolFallbackWarning fires —
        # and the results still come back via the serial path.
        from repro import obs
        from repro.core import pool
        from repro.core.pool import PoolFallbackWarning
        from repro.experiments import runner

        def no_processes(*args, **kwargs):
            raise OSError("process creation disabled")

        monkeypatch.setattr(pool, "ProcessPoolExecutor", no_processes)
        counter = obs.REGISTRY.counter(
            "pool.fallback",
            help="parallel runs degraded to the serial path",
        )
        before = counter.value
        with pytest.warns(PoolFallbackWarning, match="run_all"):
            results = runner.run_all(quick=True, jobs=2)
        assert counter.value == before + 1
        assert [r.experiment for r in results] == small_registry


class TestPerfCounters:
    def test_run_experiment_records_counters(self):
        result = run_experiment("figure-6", quick=True)
        assert result.perf["wall_seconds"] >= 0
        assert result.perf["solve_calls"] > 0

    def test_perf_is_not_rendered(self):
        result = run_experiment("figure-6", quick=True)
        assert "wall_seconds" not in result.render()

    def test_render_perf_line(self):
        result = run_experiment("figure-6", quick=True)
        line = result.render_perf()
        assert line.startswith("[perf] figure-6:")
        assert "solve_calls" in line
