"""Tests for the SystemModel facade."""

import pytest

from repro.core.application import ApplicationModel
from repro.core.network import TorusNetworkModel
from repro.core.system import SystemModel
from repro.core.transaction import TransactionModel
from repro.units import ALEWIFE_CLOCKS


@pytest.fixture
def system():
    return SystemModel(
        application=ApplicationModel(grain=8.0, contexts=2.0, switch_time=11.0),
        transaction=TransactionModel(
            critical_messages=2.0, messages_per_transaction=3.2, fixed_overhead=80.0
        ),
        network=TorusNetworkModel(dimensions=2, message_size=12.0),
        clocks=ALEWIFE_CLOCKS,
    )


class TestComposition:
    def test_node_has_expected_sensitivity(self, system):
        assert system.latency_sensitivity == pytest.approx(2.0 * 3.2 / 2.0)

    def test_operating_point_satisfies_both_curves(self, system):
        point = system.operating_point(8.0)
        node_latency = system.node.message_latency_at_rate(point.message_rate)
        assert point.message_latency == pytest.approx(node_latency, rel=1e-9)

    def test_breakdown_totals_issue_time(self, system):
        point = system.operating_point(8.0)
        breakdown = system.breakdown(8.0)
        assert breakdown.total == pytest.approx(
            point.issue_time_processor(system.clocks), rel=1e-9
        )

    def test_limiting_per_hop_latency(self, system):
        expected = system.latency_sensitivity * 12.0 / 4.0
        assert system.limiting_per_hop_latency() == pytest.approx(expected)

    def test_per_hop_curve_lengths(self, system):
        samples = system.per_hop_curve([100, 1000, 10000])
        assert len(samples) == 3


class TestVariants:

    def test_with_grain_scaled(self, system):
        scaled = system.with_grain_scaled(10.0)
        assert scaled.application.grain == pytest.approx(80.0)
        # Sensitivity is unchanged; only the intercept moves.
        assert scaled.latency_sensitivity == pytest.approx(
            system.latency_sensitivity
        )

    def test_with_network_slowdown_changes_clock_only(self, system):
        slowed = system.with_network_slowdown(2.0)
        assert slowed.clocks.network_speedup == pytest.approx(1.0)
        assert slowed.network == system.network

    def test_slowdown_hurts_absolute_performance(self, system):
        fast = system.operating_point(8.0)
        slow = system.with_network_slowdown(4.0).operating_point(8.0)
        # Compare in processor cycles: the slow network means more
        # processor cycles between transactions.
        assert slow.issue_time_processor(
            system.with_network_slowdown(4.0).clocks
        ) > fast.issue_time_processor(system.clocks)

    def test_slowdown_increases_locality_gain(self, system):
        # Table 1's headline: slower networks reward locality more.
        base_gain = system.expected_gain(1000).gain
        slow_gain = system.with_network_slowdown(4.0).expected_gain(1000).gain
        assert slow_gain > base_gain

    def test_with_dimensions_lowers_gain(self, system):
        # Section 4.2: higher-dimensional networks reduce the impact of
        # exploiting physical locality.
        two_d = system.expected_gain(4096).gain
        three_d = system.with_dimensions(3).expected_gain(4096).gain
        assert three_d < two_d

    def test_variants_do_not_mutate_original(self, system):
        original_sensitivity = system.latency_sensitivity
        system.with_grain_scaled(4.0)
        system.with_network_slowdown(8.0)
        assert system.latency_sensitivity == original_sensitivity
