"""Tests for least-squares message-curve fitting."""

import pytest

from repro.analysis.fitting import fit_line, fit_message_curve
from repro.errors import ParameterError


class TestFitLine:
    def test_exact_line_recovered(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [3.0 * x - 5.0 for x in xs]
        fit = fit_line(xs, ys)
        assert fit.slope == pytest.approx(3.0)
        assert fit.intercept == pytest.approx(-5.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noisy_line_r_squared_below_one(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        ys = [2.1, 3.9, 6.2, 7.8, 10.1]
        fit = fit_line(xs, ys)
        assert 0.9 < fit.r_squared < 1.0
        assert fit.slope == pytest.approx(2.0, rel=0.05)

    def test_rejects_single_point(self):
        with pytest.raises(ParameterError):
            fit_line([1.0], [2.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ParameterError):
            fit_line([1.0, 2.0], [1.0])

    def test_rejects_degenerate_x(self):
        with pytest.raises(ParameterError):
            fit_line([2.0, 2.0], [1.0, 3.0])

    def test_flat_line_r_squared_is_one(self):
        fit = fit_line([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        assert fit.slope == pytest.approx(0.0)
        assert fit.r_squared == pytest.approx(1.0)


class TestMessageCurveFit:
    def test_sensitivity_and_intercept_signs(self):
        # Message curve T_m = s*t_m - K: fitted intercept is -K.
        points = [(t, 2.5 * t - 40.0) for t in (20.0, 30.0, 40.0, 50.0)]
        curve = fit_message_curve(points, contexts=2)
        assert curve.sensitivity == pytest.approx(2.5)
        assert curve.curve_intercept == pytest.approx(40.0)
        assert curve.contexts == 2

    def test_to_node_model(self):
        points = [(t, 2.5 * t - 40.0) for t in (20.0, 30.0, 40.0)]
        node = fit_message_curve(points).to_node_model(
            messages_per_transaction=3.2
        )
        assert node.sensitivity == pytest.approx(2.5)
        assert node.intercept == pytest.approx(40.0)
        assert node.messages_per_transaction == 3.2

    def test_to_node_model_clamps_negative_intercept(self):
        # Slightly negative measured K (noise around zero) must not crash.
        points = [(t, 2.5 * t + 1.0) for t in (20.0, 30.0, 40.0)]
        node = fit_message_curve(points).to_node_model()
        assert node.intercept == 0.0

    def test_rejects_too_few_points(self):
        with pytest.raises(ParameterError):
            fit_message_curve([(1.0, 2.0)])
