"""Tests for the combined-model solver (paper Section 2.5)."""

import pytest

from repro.core.combined import open_loop, solve, solve_quadratic
from repro.core.network import TorusNetworkModel
from repro.core.node import NodeModel
from repro.errors import ParameterError, SaturationError


@pytest.fixture
def node():
    # A moderately latency-tolerant node: s = 3.2, intercept 100 cycles.
    return NodeModel(sensitivity=3.2, intercept=100.0, messages_per_transaction=3.2)


@pytest.fixture
def network():
    return TorusNetworkModel(dimensions=2, message_size=12.0)


@pytest.fixture
def base_network():
    return TorusNetworkModel(
        dimensions=2, message_size=12.0, clamp_local=False,
        node_channel_contention=False,
    )


class TestFixedPoint:
    def test_solution_lies_on_both_curves(self, node, network):
        point = solve(node, network, distance=8.0)
        node_side = node.message_latency_at_rate(point.message_rate)
        network_side = network.message_latency(point.message_rate, 8.0)
        assert node_side == pytest.approx(network_side, rel=1e-9)
        assert point.message_latency == pytest.approx(node_side, rel=1e-9)

    def test_utilization_below_saturation(self, node, network):
        point = solve(node, network, distance=8.0)
        assert 0.0 < point.utilization < 1.0

    def test_rejects_nonpositive_distance(self, node, network):
        with pytest.raises(ParameterError):
            solve(node, network, distance=0.0)

    def test_rate_decreases_with_distance(self, node, network):
        # The feedback: longer distances -> higher latency -> backoff.
        rates = [solve(node, network, d).message_rate for d in (2.0, 4.0, 8.0, 16.0)]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_latency_increases_with_distance(self, node, network):
        latencies = [
            solve(node, network, d).message_latency for d in (2.0, 4.0, 8.0, 16.0)
        ]
        assert all(b > a for a, b in zip(latencies, latencies[1:]))

    def test_higher_sensitivity_sustains_higher_rate(self, network):
        tolerant = NodeModel(sensitivity=6.4, intercept=100.0)
        intolerant = NodeModel(sensitivity=1.6, intercept=100.0)
        assert (
            solve(tolerant, network, 8.0).message_rate
            > solve(intolerant, network, 8.0).message_rate
        )

    def test_clamped_local_solution_is_analytic(self, node, network):
        # d < n: T_m = d + B + node-channel; with contention the bisection
        # runs, but the mesh term is exactly d + B.
        point = solve(node, network, distance=1.0)
        assert point.per_hop_latency == pytest.approx(1.0)
        assert point.message_latency == pytest.approx(
            1.0 + 12.0 + network.node_channel_delay(point.message_rate)
        )

    def test_clamped_without_node_channels_closed_form(self, node):
        network = TorusNetworkModel(
            dimensions=2, message_size=12.0, node_channel_contention=False
        )
        point = solve(node, network, distance=1.0)
        # r = s / (K + d + B) = 3.2 / 113.
        assert point.message_rate == pytest.approx(3.2 / 113.0)


class TestOperatingPointFields:
    def test_message_time_is_reciprocal_rate(self, node, network):
        point = solve(node, network, 8.0)
        assert point.message_time == pytest.approx(1.0 / point.message_rate)

    def test_transaction_rate_uses_g(self, node, network):
        point = solve(node, network, 8.0)
        assert point.transaction_rate == pytest.approx(point.message_rate / 3.2)

    def test_issue_time_uses_g(self, node, network):
        point = solve(node, network, 8.0)
        assert point.issue_time == pytest.approx(3.2 * point.message_time)

    def test_distance_recorded(self, node, network):
        assert solve(node, network, 8.0).distance == 8.0


class TestQuadraticCrossCheck:
    def test_matches_bisection_on_base_model(self, node, base_network):
        for distance in (3.0, 6.0, 10.0, 25.0, 100.0):
            numeric = solve(node, base_network, distance)
            closed = solve_quadratic(node, base_network, distance)
            assert closed.message_rate == pytest.approx(
                numeric.message_rate, rel=1e-9
            )

    def test_refuses_extended_model(self, node, network):
        with pytest.raises(ParameterError):
            solve_quadratic(node, network, 8.0)

    def test_delegates_when_geometry_vanishes(self, node, base_network):
        # k_d <= 1 makes the quadratic degenerate; both paths must agree.
        closed = solve_quadratic(node, base_network, 2.0)
        numeric = solve(node, base_network, 2.0)
        assert closed.message_rate == pytest.approx(numeric.message_rate, rel=1e-9)

    def test_rejects_nonpositive_distance(self, node, base_network):
        with pytest.raises(ParameterError):
            solve_quadratic(node, base_network, -1.0)


class TestOpenLoopAblation:
    def test_open_loop_matches_network_curve(self, network):
        assert open_loop(network, 0.01, 8.0) == pytest.approx(
            network.message_latency(0.01, 8.0)
        )

    def test_open_loop_diverges_where_feedback_would_not(self, node, network):
        # The paper's key contrast with Agarwal: a fixed injection rate
        # saturates large networks, the closed loop never does.
        closed = solve(node, network, 8.0)
        fixed_rate = closed.message_rate
        # At 4x the distance the same rate exceeds saturation...
        with pytest.raises(SaturationError):
            open_loop(network, fixed_rate, 32.0)
        # ...while the closed-loop model still solves.
        assert solve(node, network, 32.0).utilization < 1.0

    def test_extreme_distance_still_solvable_closed_loop(self, node, network):
        point = solve(node, network, 2000.0)
        assert point.utilization < 1.0
        assert point.message_latency > 0
