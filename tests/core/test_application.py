"""Tests for the application model (paper Section 2.1, Eqs 1-6)."""

import pytest

from repro.core.application import ApplicationModel
from repro.errors import ParameterError


@pytest.fixture
def single_context():
    return ApplicationModel(grain=50.0, contexts=1.0, switch_time=0.0)


@pytest.fixture
def sparcle_like():
    return ApplicationModel(grain=50.0, contexts=4.0, switch_time=11.0)


class TestConstruction:
    @pytest.mark.parametrize("bad_grain", [0.0, -1.0])
    def test_rejects_nonpositive_grain(self, bad_grain):
        with pytest.raises(ParameterError):
            ApplicationModel(grain=bad_grain)

    @pytest.mark.parametrize("bad_contexts", [0.0, 0.5, -1.0])
    def test_rejects_contexts_below_one(self, bad_contexts):
        with pytest.raises(ParameterError):
            ApplicationModel(grain=10.0, contexts=bad_contexts)

    def test_rejects_negative_switch_time(self):
        with pytest.raises(ParameterError):
            ApplicationModel(grain=10.0, switch_time=-1.0)

    def test_fractional_contexts_allowed(self):
        # Prefetching-style mechanisms sustain fractional averages.
        model = ApplicationModel(grain=10.0, contexts=1.5)
        assert model.contexts == 1.5


class TestTransactionCurve:
    def test_single_context_eq2(self, single_context):
        # Eq 2: T_t = t_t - T_r  <=>  t_t = T_t + T_r.
        assert single_context.issue_time(100.0) == pytest.approx(150.0)

    def test_eq6_inverts_eq5(self, sparcle_like):
        latency = 321.0
        issue = sparcle_like.issue_time(latency)
        assert sparcle_like.transaction_latency(issue) == pytest.approx(latency)

    def test_slope_is_contexts(self, sparcle_like):
        # Eq 6: dT_t/dt_t = p.
        t1 = sparcle_like.issue_time(100.0)
        t2 = sparcle_like.issue_time(200.0)
        assert (200.0 - 100.0) / (t2 - t1) == pytest.approx(4.0)

    def test_doubling_contexts_halves_latency_sensitivity(self):
        # The paper's A-vs-B example: doubling the slope halves the issue-
        # time increase for the same latency increase.
        a = ApplicationModel(grain=50.0, contexts=1.0)
        b = ApplicationModel(grain=50.0, contexts=2.0)
        delta_a = a.issue_time(200.0) - a.issue_time(100.0)
        delta_b = b.issue_time(200.0) - b.issue_time(100.0)
        assert delta_b == pytest.approx(delta_a / 2.0)

    def test_zero_latency_issue_time_is_grain_over_contexts(self, sparcle_like):
        assert sparcle_like.issue_time(0.0) == pytest.approx(50.0 / 4.0)


class TestMasking:
    def test_single_context_cannot_mask_any_latency(self, single_context):
        assert single_context.masking_threshold == 0.0

    def test_masking_threshold_eq3(self, sparcle_like):
        # Eq 3 threshold: p*T_s + (p-1)*T_r = 4*11 + 3*50 = 194.
        assert sparcle_like.masking_threshold == pytest.approx(194.0)

    def test_min_issue_time_eq4(self, sparcle_like):
        # Eq 4: t_t >= T_r + T_s.
        assert sparcle_like.min_issue_time == pytest.approx(61.0)


class TestVariants:

    def test_with_grain_scaled_figure6_style(self, sparcle_like):
        scaled = sparcle_like.with_grain_scaled(10.0)
        assert scaled.grain == pytest.approx(500.0)

    def test_with_grain_scaled_rejects_nonpositive(self, sparcle_like):
        with pytest.raises(ParameterError):
            sparcle_like.with_grain_scaled(0.0)
