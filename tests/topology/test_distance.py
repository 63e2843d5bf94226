"""Tests for Eq 17 and the random-traffic distance helpers."""

import pytest

from repro.errors import ParameterError
from repro.topology.distance import (
    random_traffic_distance,
    random_traffic_distance_exact,
    random_traffic_distance_for_size,
)


class TestEq17:
    def test_paper_64_node_value(self):
        # Footnote 2: "just over four network hops" at 64 nodes.
        value = random_traffic_distance(8, 2)
        assert value == pytest.approx(1024 / 252)
        assert 4.0 < value < 4.1

    def test_thousand_processor_machine(self):
        # Section 4.2: random mapping distance "nearly a factor of 16"
        # over single-hop at ~1,000 processors (k = 32).
        assert random_traffic_distance(32, 2) == pytest.approx(
            2 * 32**3 / (4 * 1023)
        )
        assert 15.5 < random_traffic_distance(32, 2) < 16.5

    def test_million_processor_machine(self):
        # k = 1000, n = 2: d ~ n*k/4 = 500.
        assert random_traffic_distance(1000, 2) == pytest.approx(500.0, rel=1e-3)

    def test_matches_exact_enumeration_even_radix(self):
        for radix, dims in [
            (2, 2), (4, 2), (8, 2), (16, 2), (32, 2), (4, 3), (2, 4),
        ]:
            assert random_traffic_distance(radix, dims) == pytest.approx(
                random_traffic_distance_exact(radix, dims)
            )

    def test_upper_bounds_exact_for_odd_radix(self):
        # Odd rings have no antipode, so Eq 17 slightly overestimates.
        for radix, dims in [(3, 2), (5, 2), (7, 3)]:
            closed = random_traffic_distance(radix, dims)
            exact = random_traffic_distance_exact(radix, dims)
            assert closed > exact
            # The overestimate shrinks with radix: ~12% at k=3, ~4% at
            # k=5, ~2% at k=7.
            assert closed == pytest.approx(exact, rel=0.15)

    def test_fractional_radix_accepted(self):
        # Section 4 sweeps treat k = N**(1/n) as continuous.
        assert random_traffic_distance(10.5, 2) > random_traffic_distance(10.0, 2)

    @pytest.mark.parametrize("bad_radix", [1.0, 0.5, 0.0, -8])
    def test_rejects_radix_at_or_below_one(self, bad_radix):
        with pytest.raises(ParameterError):
            random_traffic_distance(bad_radix, 2)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ParameterError):
            random_traffic_distance(8, 0)


class TestForSize:
    def test_consistent_with_radix_form(self):
        assert random_traffic_distance_for_size(64, 2) == pytest.approx(
            random_traffic_distance(8, 2)
        )

    def test_non_square_sizes_interpolate(self):
        d_1000 = random_traffic_distance_for_size(1000, 2)
        d_1024 = random_traffic_distance_for_size(1024, 2)
        assert d_1000 < d_1024

    def test_higher_dimensions_shorten_distance(self):
        # Section 4.2: increasing n affords shorter random distances.
        assert random_traffic_distance_for_size(
            4096, 3
        ) < random_traffic_distance_for_size(4096, 2)

    def test_rejects_sizes_at_or_below_one(self):
        with pytest.raises(ParameterError):
            random_traffic_distance_for_size(1, 2)
