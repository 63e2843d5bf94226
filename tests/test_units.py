"""Tests for the processor/network clock-domain conversions."""

import pytest

from repro.errors import ParameterError
from repro.units import ALEWIFE_CLOCKS, EQUAL_CLOCKS, ClockDomain


class TestClockDomainConstruction:
    def test_default_is_alewife_ratio(self):
        assert ClockDomain().network_speedup == 2.0

    def test_alewife_constant_matches_paper(self):
        # "network switches are clocked twice as fast as processors"
        assert ALEWIFE_CLOCKS.network_speedup == 2.0

    def test_equal_clocks(self):
        assert EQUAL_CLOCKS.network_speedup == 1.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_rejects_nonpositive_speedup(self, bad):
        with pytest.raises(ParameterError):
            ClockDomain(network_speedup=bad)

    def test_frozen(self):
        with pytest.raises(Exception):
            ALEWIFE_CLOCKS.network_speedup = 3.0


class TestConversions:

    def test_to_network_scales_up_durations(self):
        clocks = ClockDomain(network_speedup=2.0)
        assert clocks.to_network(10.0) == 20.0

    def test_to_processor_scales_down_durations(self):
        clocks = ClockDomain(network_speedup=2.0)
        assert clocks.to_processor(20.0) == 10.0

    def test_roundtrip_identity(self):
        clocks = ClockDomain(network_speedup=1.7)
        assert clocks.to_processor(clocks.to_network(13.0)) == pytest.approx(13.0)

    def test_equal_clocks_conversions_are_identity(self):
        assert EQUAL_CLOCKS.to_network(7.0) == 7.0
        assert EQUAL_CLOCKS.to_processor(7.0) == 7.0


class TestSlowed:
    def test_slowing_by_two_halves_speedup(self):
        slowed = ALEWIFE_CLOCKS.slowed(2.0)
        assert slowed.network_speedup == 1.0

    def test_table1_four_rows(self):
        # Table 1: 2x faster (base), same, 2x slower, 4x slower.
        speedups = [ALEWIFE_CLOCKS.slowed(f).network_speedup for f in (1, 2, 4, 8)]
        assert speedups == [2.0, 1.0, 0.5, 0.25]

    def test_fractional_slowdown_speeds_up(self):
        assert ALEWIFE_CLOCKS.slowed(0.5).network_speedup == 4.0

    @pytest.mark.parametrize("bad", [0.0, -2.0])
    def test_rejects_nonpositive_factor(self, bad):
        with pytest.raises(ParameterError):
            ALEWIFE_CLOCKS.slowed(bad)
