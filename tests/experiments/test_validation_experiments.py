"""Quick-mode tests for the simulation-backed experiments (Figures 3-5
and the switch-buffering ablation).

These exercise the full pipeline — mapping suite, 64-node simulations,
curve fits, model comparison — with shortened measurement windows.  The
memoized validation data is shared across the three figures, so the
expensive simulations run once per context count for this whole module.
"""

import pytest

from repro.experiments import fig3, fig4, fig5
from repro.experiments.ablations import run_buffering
from repro.experiments.validation_data import validation_config, validation_report


@pytest.fixture(scope="module", autouse=True)
def fresh_cache():
    validation_report.cache_clear()
    yield
    validation_report.cache_clear()


class TestValidationData:
    def test_config_windows(self):
        quick = validation_config(1, quick=True)
        full = validation_config(1, quick=False)
        assert quick.total_network_cycles < full.total_network_cycles
        assert quick.contexts == full.contexts == 1

    def test_memoization(self):
        first = validation_report(1, quick=True)
        second = validation_report(1, quick=True)
        assert first is second


class TestFigure3:
    def test_slopes_grow_with_contexts(self):
        result = fig3.run(quick=True)
        slopes = result.data["slopes"]
        assert slopes[1] < slopes[2] < slopes[4]

    def test_slope_growth_slightly_sublinear(self):
        # Paper: "increases in slope ... slightly less than expected".
        slopes = fig3.run(quick=True).data["slopes"]
        assert 1.4 < slopes[2] / slopes[1] < 2.2
        assert 2.2 < slopes[4] / slopes[1] < 4.5

    def test_curves_are_linear(self):
        reports = fig3.run(quick=True).data["reports"]
        for report in reports.values():
            assert report.curve.fit.r_squared > 0.8


class TestFigure4:
    def test_rate_errors_within_validation_band(self):
        reports = fig4.run(quick=True).data["reports"]
        # Paper: "consistently within a few percent" — hold the p=1 runs
        # to a firm band, the heavily loaded p=4 runs to a looser one
        # (see EXPERIMENTS.md on permutation-traffic deviations).
        assert reports[1].mean_rate_error < 0.12
        assert reports[4].mean_rate_error < 0.30

    def test_rates_fall_with_distance(self):
        reports = fig4.run(quick=True).data["reports"]
        for report in reports.values():
            rows = report.rows
            assert (
                rows[0].simulated.message_rate
                > rows[-1].simulated.message_rate
            )


class TestFigure5:
    def test_latency_tracking(self):
        reports = fig5.run(quick=True).data["reports"]
        assert reports[1].max_latency_error_cycles < 12.0

    def test_latencies_grow_with_distance(self):
        reports = fig5.run(quick=True).data["reports"]
        for report in reports.values():
            rows = report.rows
            assert (
                rows[-1].simulated.mean_message_latency
                > rows[0].simulated.mean_message_latency
            )

    def test_render_mentions_both_series(self):
        text = fig5.run(quick=True).render()
        assert "sim T_m" in text and "model T_m" in text


class TestBufferingAblation:
    def test_wormhole_latency_grows_with_distance(self):
        rows = run_buffering(quick=True).data["rows"]
        # Rows run from the ideal to the adversarial mapping; each is
        # (mapping, d, T_m cut-through, T_m wormhole, wormhole/cut-through).
        assert [row[1] for row in rows] == sorted(row[1] for row in rows)
        for _, _, cut_through, wormhole, _ in rows:
            assert wormhole >= cut_through
        ratios = [row[4] for row in rows]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
