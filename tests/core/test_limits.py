"""Tests for the asymptotic results (paper Section 4.1, Eq 16)."""

import pytest

from repro.core.limits import (
    limiting_per_hop_latency,
    limiting_per_hop_latency_for,
    per_hop_curve,
    size_to_reach_fraction,
)
from repro.core.network import TorusNetworkModel
from repro.core.node import NodeModel
from repro.errors import ParameterError


@pytest.fixture
def node():
    # The paper's two-context configuration: s = 3.26.
    return NodeModel(sensitivity=3.26, intercept=50.0, messages_per_transaction=3.2)


@pytest.fixture
def network():
    # The Section 4 sweeps use the base model (no node-channel term).
    return TorusNetworkModel(
        dimensions=2, message_size=12.0, node_channel_contention=False
    )


class TestEq16:
    def test_papers_quoted_value(self):
        # s = 3.26, B = 12, n = 2 -> "approximately 9.8 network cycles".
        assert limiting_per_hop_latency(3.26, 12.0, 2) == pytest.approx(9.78)

    def test_limit_proportional_to_sensitivity(self):
        # Section 4.1: multiple outstanding transactions raise the limit
        # proportionally.
        one = limiting_per_hop_latency(1.63, 12.0, 2)
        two = limiting_per_hop_latency(3.26, 12.0, 2)
        assert two == pytest.approx(2.0 * one)

    def test_limit_floor_is_one_cycle(self):
        # If s*B/(2n) < 1 the network is never stressed; T_h -> 1.
        assert limiting_per_hop_latency(0.1, 2.0, 4) == 1.0

    def test_higher_dimension_lowers_limit(self):
        assert limiting_per_hop_latency(3.26, 12.0, 3) < limiting_per_hop_latency(
            3.26, 12.0, 2
        )

    @pytest.mark.parametrize(
        "bad_args",
        [(0.0, 12.0, 2), (3.26, 0.0, 2), (3.26, 12.0, 0)],
    )
    def test_rejects_invalid_parameters(self, bad_args):
        with pytest.raises(ParameterError):
            limiting_per_hop_latency(*bad_args)

    def test_for_variant_reads_models(self, node, network):
        assert limiting_per_hop_latency_for(node, network) == pytest.approx(9.78)


class TestApproachToLimit:
    def test_per_hop_latency_monotone_in_machine_size(self, node, network):
        samples = per_hop_curve(node, network, [100, 1000, 10000, 100000])
        latencies = [s.per_hop_latency for s in samples]
        assert all(b > a for a, b in zip(latencies, latencies[1:]))

    def test_per_hop_latency_stays_within_limit_band(self, node, network):
        # Eq 16 is approached from below over this whole range for the
        # paper's parameters (fixed overheads dominate until enormous
        # machines); allow a sliver for the asymptotic overshoot regime.
        limit = limiting_per_hop_latency_for(node, network)
        samples = per_hop_curve(node, network, [100, 1000, 1e4, 1e5, 1e6, 1e7])
        assert all(s.per_hop_latency <= limit * 1.02 for s in samples)

    def test_limit_approached_closely_at_huge_sizes(self, node, network):
        limit = limiting_per_hop_latency_for(node, network)
        (sample,) = per_hop_curve(node, network, [1e8])
        assert sample.per_hop_latency > 0.98 * limit

    def test_samples_record_distance_and_size(self, node, network):
        (sample,) = per_hop_curve(node, network, [4096])
        assert sample.processors == 4096
        # d for N = 4096 is just under k/2 * n / 2 = 32; Eq 17 exact:
        assert sample.distance == pytest.approx(2 * 64**3 / (4 * 4095))


class TestSizeToReachFraction:
    def test_paper_claim_eighty_percent_few_thousand(self, network):
        # Figure 6: the small-grain two-context application reaches over
        # 80% of its limiting value with "a few thousand processors".
        # Calibrated two-context node: intercept (T_r + T_f)*2/c =
        # (8 + 80)*2/1.963 network cycles.
        node = NodeModel(
            sensitivity=3.26, intercept=(8.0 + 80.0) * 2 / 1.963,
            messages_per_transaction=3.2,
        )
        size = size_to_reach_fraction(node, network, 0.8)
        assert 1000 < size < 10000

    def test_larger_grain_reaches_fraction_later(self, network):
        small = NodeModel(sensitivity=3.26, intercept=50.0)
        large = NodeModel(sensitivity=3.26, intercept=500.0)
        assert size_to_reach_fraction(
            large, network, 0.8
        ) > size_to_reach_fraction(small, network, 0.8)

    def test_rejects_fraction_outside_unit_interval(self, node, network):
        with pytest.raises(ParameterError):
            size_to_reach_fraction(node, network, 1.0)
        with pytest.raises(ParameterError):
            size_to_reach_fraction(node, network, 0.0)

    def test_unreachable_fraction_raises(self, network):
        node = NodeModel(sensitivity=3.26, intercept=50.0)
        with pytest.raises(ParameterError, match=r"reach 0\.9999 of its limit"):
            size_to_reach_fraction(node, network, 0.9999)
