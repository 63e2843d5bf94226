"""Calibration tests: the Alewife system must reproduce the paper's numbers.

These are the headline reproduction checks: Table 1, Figure 6's limiting
value and approach rate, Figure 7's gain levels, and Figure 8's structure.
Tolerances reflect that we re-derived ``T_r`` and ``T_f`` from the paper's
descriptions rather than from unpublished simulator calibration data.
"""

import pytest

from repro.experiments.alewife import (
    CONTEXT_SWITCH_CYCLES,
    MESSAGE_FLITS,
    MESSAGES_PER_TRANSACTION,
    alewife_system,
    alewife_validation_system,
    critical_messages,
)
from repro.topology.distance import random_traffic_distance_for_size


def random_mapping_point(system, processors):
    """The operating point under a random mapping on ``processors``
    nodes: Eq 17's distance."""
    distance = random_traffic_distance_for_size(processors, 2)
    return system.operating_point(distance)


class TestKnownConstants:
    def test_message_size_96_bits_on_8_bit_channels(self):
        assert MESSAGE_FLITS == 12.0

    def test_messages_per_transaction(self):
        assert MESSAGES_PER_TRANSACTION == 3.2

    def test_sparcle_context_switch(self):
        assert CONTEXT_SWITCH_CYCLES == 11.0

    def test_critical_messages_near_two(self):
        assert critical_messages(1) == pytest.approx(2.0, rel=0.1)

    def test_critical_messages_grows_15_percent_to_four_contexts(self):
        # Section 3.3: "c is measured to be 15 percent larger" at p = 4.
        assert critical_messages(4) / critical_messages(1) == pytest.approx(1.15)

    def test_sensitivity_anchored_at_two_contexts(self):
        # Figure 6's quoted s = 3.26 for the two-context application.
        assert alewife_system(contexts=2).latency_sensitivity == pytest.approx(
            3.26
        )

    def test_network_clock_twice_processor(self):
        assert alewife_system().clocks.network_speedup == 2.0


class TestFigure6:
    def test_limiting_value_is_9_8_network_cycles(self):
        system = alewife_system(contexts=2)
        assert system.limiting_per_hop_latency() == pytest.approx(9.78, abs=0.05)

    def test_eighty_percent_by_a_few_thousand_processors(self):
        system = alewife_system(contexts=2)
        limit = system.limiting_per_hop_latency()
        point = random_mapping_point(system, 4000)
        assert point.per_hop_latency > 0.8 * limit

    def test_not_yet_eighty_percent_at_few_hundred(self):
        system = alewife_system(contexts=2)
        limit = system.limiting_per_hop_latency()
        point = random_mapping_point(system, 256)
        assert point.per_hop_latency < 0.8 * limit

    def test_larger_grain_same_limit_slower_approach(self):
        base = alewife_system(contexts=2)
        coarse = base.with_grain_scaled(10.0)
        assert coarse.limiting_per_hop_latency() == pytest.approx(
            base.limiting_per_hop_latency()
        )
        assert (
            random_mapping_point(coarse, 4000).per_hop_latency
            < random_mapping_point(base, 4000).per_hop_latency
        )


class TestFigure7:
    @pytest.mark.parametrize("contexts", [1, 2, 4])
    def test_unity_gain_at_ten_processors(self, contexts):
        gain = alewife_system(contexts=contexts).expected_gain(10).gain
        assert gain == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("contexts", [1, 2, 4])
    def test_gain_of_two_around_a_thousand_processors(self, contexts):
        gain = alewife_system(contexts=contexts).expected_gain(1000).gain
        assert 1.7 < gain < 2.4

    @pytest.mark.parametrize("contexts", [1, 2, 4])
    def test_gain_40_to_55_at_a_million_processors(self, contexts):
        gain = alewife_system(contexts=contexts).expected_gain(1e6).gain
        assert 38.0 < gain < 57.0

    def test_curves_nearly_coincide(self):
        # "The curves are strikingly similar."
        gains = [
            alewife_system(contexts=p).expected_gain(1000).gain for p in (1, 2, 4)
        ]
        assert max(gains) / min(gains) < 1.1


class TestTable1:
    # Rows: network speed relative to processors; the Section 3
    # architecture is the "2x faster" row (slowdown factor 1).
    EXPECTED = [
        (1, 2.1, 41.2),
        (2, 3.1, 68.3),
        (4, 4.5, 101.6),
        (8, 5.9, 134.3),
    ]

    @pytest.mark.parametrize("slowdown,thousand,million", EXPECTED)
    def test_thousand_processor_column(self, slowdown, thousand, million):
        system = alewife_system(contexts=1).with_network_slowdown(slowdown)
        assert system.expected_gain(1000).gain == pytest.approx(thousand, rel=0.06)

    @pytest.mark.parametrize("slowdown,thousand,million", EXPECTED)
    def test_million_processor_column(self, slowdown, thousand, million):
        system = alewife_system(contexts=1).with_network_slowdown(slowdown)
        assert system.expected_gain(1e6).gain == pytest.approx(million, rel=0.06)

    def test_eight_fold_slowdown_triples_gains(self):
        # Section 1.3 / Section 6 summary claim.
        base = alewife_system(contexts=1)
        slowed = base.with_network_slowdown(8)
        ratio_million = (
            slowed.expected_gain(1e6).gain / base.expected_gain(1e6).gain
        )
        assert ratio_million == pytest.approx(3.0, rel=0.15)


class TestFigure8:
    def test_fixed_transaction_about_two_thirds_at_one_context(self):
        system = alewife_system(contexts=1)
        breakdown = system.breakdown(1.0)
        assert breakdown.fixed_transaction_share == pytest.approx(2 / 3, abs=0.05)

    def test_fixed_transaction_contribution_is_1_to_1_5_us(self):
        # ~40 processor cycles at 33-40 MHz is 1.0-1.2 us.
        for contexts in (1, 2, 4):
            breakdown = alewife_system(contexts=contexts).breakdown(1.0)
            microseconds = breakdown.fixed_transaction / 33.0  # at 33 MHz
            assert 0.9 < microseconds < 1.6

    def test_random_mapping_variable_on_par_with_fixed(self):
        # Section 4.2: the drastic variable-message increase only brings
        # it "on par" with the fixed components at N = 1,000.
        for contexts in (1, 2, 4):
            system = alewife_system(contexts=contexts)
            gain = system.expected_gain(1000)
            breakdown = system.breakdown(gain.random_distance)
            ratio = breakdown.variable_message / breakdown.fixed_total
            assert 0.5 < ratio < 2.0

    def test_ideal_mapping_variable_negligible(self):
        breakdown = alewife_system(contexts=1).breakdown(1.0)
        assert breakdown.variable_message < 0.1 * breakdown.fixed_total


class TestSectionFourPointTwoNarrative:
    def test_distance_ratio_nearly_16_at_thousand_processors(self):
        result = alewife_system(contexts=1).expected_gain(1000)
        assert result.random_distance / result.ideal_distance == pytest.approx(
            15.8, abs=0.5
        )

    def test_per_hop_ratio_factor_four_or_more(self):
        # "T_h will be substantially larger, by a factor of four or more"
        system = alewife_system(contexts=2)
        gain = system.expected_gain(1000)
        assert gain.random.per_hop_latency / gain.ideal.per_hop_latency > 4.0

    def test_validation_system_enables_node_channels(self):
        assert alewife_validation_system().network.node_channel_contention
        assert not alewife_system().network.node_channel_contention
