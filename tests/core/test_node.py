"""Tests for the node model (paper Section 2.3, Eq 9)."""

from dataclasses import replace

import pytest

from repro.core.application import ApplicationModel
from repro.core.node import NodeModel
from repro.core.transaction import TransactionModel
from repro.errors import ParameterError
from repro.units import ALEWIFE_CLOCKS, EQUAL_CLOCKS


@pytest.fixture
def app():
    return ApplicationModel(grain=40.0, contexts=2.0, switch_time=11.0)


@pytest.fixture
def txn():
    return TransactionModel(
        critical_messages=2.0, messages_per_transaction=3.2, fixed_overhead=60.0
    )


class TestConstruction:
    def test_rejects_nonpositive_sensitivity(self):
        with pytest.raises(ParameterError):
            NodeModel(sensitivity=0.0, intercept=1.0)

    def test_rejects_negative_intercept(self):
        with pytest.raises(ParameterError):
            NodeModel(sensitivity=1.0, intercept=-1.0)

    def test_rejects_nonpositive_messages_per_transaction(self):
        with pytest.raises(ParameterError):
            NodeModel(sensitivity=1.0, intercept=0.0, messages_per_transaction=0.0)


class TestComposition:
    def test_sensitivity_is_pg_over_c(self, app, txn):
        node = NodeModel.from_components(app, txn, EQUAL_CLOCKS)
        assert node.sensitivity == pytest.approx(2.0 * 3.2 / 2.0)

    def test_sensitivity_independent_of_clocks(self, app, txn):
        # s is dimensionless (slope of a time-vs-time line).
        equal = NodeModel.from_components(app, txn, EQUAL_CLOCKS)
        alewife = NodeModel.from_components(app, txn, ALEWIFE_CLOCKS)
        assert equal.sensitivity == pytest.approx(alewife.sensitivity)

    def test_intercept_eq9(self, app, txn):
        # (T_r + T_f)/c in network cycles: (40+60)*2 / 2 = 100 with the
        # Alewife 2x network clock.
        node = NodeModel.from_components(app, txn, ALEWIFE_CLOCKS)
        assert node.intercept == pytest.approx(100.0)

    def test_sensitivity_proportional_to_contexts(self, app, txn):
        one = NodeModel.from_components(replace(app, contexts=1.0), txn, EQUAL_CLOCKS)
        four = NodeModel.from_components(replace(app, contexts=4.0), txn, EQUAL_CLOCKS)
        assert four.sensitivity == pytest.approx(4.0 * one.sensitivity)


class TestMessageCurve:
    @pytest.fixture
    def node(self, app, txn):
        return NodeModel.from_components(app, txn, ALEWIFE_CLOCKS)

    def test_curve_is_linear_with_slope_s(self, node):
        t1, t2 = 50.0, 90.0
        slope = (node.message_latency(t2) - node.message_latency(t1)) / (t2 - t1)
        assert slope == pytest.approx(node.sensitivity)

    def test_message_time_inverts_message_latency(self, node):
        latency = node.message_latency(75.0)
        assert node.message_time(latency) == pytest.approx(75.0)

    def test_rate_view_matches_time_view(self, node):
        time = 40.0
        assert node.message_latency_at_rate(1.0 / time) == pytest.approx(
            node.message_latency(time)
        )

    def test_rate_view_rejects_nonpositive_rate(self, node):
        with pytest.raises(ParameterError):
            node.message_latency_at_rate(0.0)

    def test_backoff_direction(self, node):
        # Higher observed latency -> longer inter-message time (the
        # feedback that keeps networks out of saturation).
        assert node.message_time(200.0) > node.message_time(100.0)


class TestTransactionRecovery:
    @pytest.fixture
    def node(self, app, txn):
        return NodeModel.from_components(app, txn, ALEWIFE_CLOCKS)

    def test_issue_time_is_g_times_message_time(self, node, txn):
        assert node.issue_time(10.0) == pytest.approx(
            txn.messages_per_transaction * 10.0
        )

    def test_transaction_rate_is_message_rate_over_g(self, node, txn):
        assert node.transaction_rate(0.032) == pytest.approx(
            0.032 / txn.messages_per_transaction
        )
