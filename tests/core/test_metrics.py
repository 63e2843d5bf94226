"""Tests for the performance metrics (paper Section 2.6)."""

import pytest

from repro.core.combined import solve
from repro.core.metrics import expected_gain, performance_ratio
from repro.core.network import TorusNetworkModel
from repro.core.node import NodeModel
from repro.errors import ParameterError


@pytest.fixture
def node():
    return NodeModel(sensitivity=3.2, intercept=100.0, messages_per_transaction=3.2)


@pytest.fixture
def network():
    return TorusNetworkModel(dimensions=2, message_size=12.0)


class TestBasicMetrics:

    def test_performance_ratio_is_rate_ratio(self, node, network):
        near = solve(node, network, 2.0)
        far = solve(node, network, 16.0)
        assert performance_ratio(near, far) == pytest.approx(
            near.transaction_rate / far.transaction_rate
        )
        assert performance_ratio(near, far) > 1.0


class TestExpectedGain:
    def test_gain_exceeds_one(self, node, network):
        result = expected_gain(node, network, processors=1024)
        assert result.gain > 1.0

    def test_random_distance_uses_eq17(self, node, network):
        result = expected_gain(node, network, processors=4096)
        # N = 4096, n = 2 => k = 64 => d = 2*64^3/(4*(4096-1)).
        assert result.random_distance == pytest.approx(
            2 * 64**3 / (4 * 4095), rel=1e-12
        )

    def test_gain_monotone_in_machine_size(self, node, network):
        gains = [
            expected_gain(node, network, n).gain for n in (100, 1000, 10000, 100000)
        ]
        assert all(b > a for a, b in zip(gains, gains[1:]))

    def test_gain_bounded_by_latency_reduction(self, node, network):
        # Section 4.1: gain is at most linear in the distance factor —
        # in particular it can never exceed the message-latency ratio.
        result = expected_gain(node, network, processors=10000)
        latency_ratio = (
            result.random.message_latency / result.ideal.message_latency
        )
        assert result.gain <= latency_ratio + 1e-9

    def test_custom_ideal_distance(self, node, network):
        close = expected_gain(node, network, 4096, ideal_distance=1.0)
        farther = expected_gain(node, network, 4096, ideal_distance=2.0)
        assert farther.gain < close.gain

    def test_rejects_nonpositive_ideal_distance(self, node, network):
        with pytest.raises(ParameterError):
            expected_gain(node, network, 1024, ideal_distance=0.0)
