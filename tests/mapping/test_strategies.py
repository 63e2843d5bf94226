"""Tests for the concrete mapping strategies."""

import pytest

from repro.errors import MappingError
from repro.mapping.evaluate import average_distance
from repro.mapping.strategies import (
    bit_reversal_mapping,
    dimension_scale_mapping,
    identity_mapping,
    random_mapping,
    shear_mapping,
    stride_mapping,
)
from repro.topology.graphs import torus_neighbor_graph
from repro.topology.torus import Torus


@pytest.fixture
def torus():
    return Torus(radix=8, dimensions=2)


@pytest.fixture
def graph():
    return torus_neighbor_graph(8, 2)


class TestIdentity:
    def test_is_bijective(self):
        assert identity_mapping(64).is_bijective

    def test_ideal_for_torus_workload(self, torus, graph):
        # Every application edge is one network hop.
        assert average_distance(graph, identity_mapping(64), torus) == pytest.approx(
            1.0
        )


class TestRandom:
    def test_is_bijective(self):
        assert random_mapping(64, seed=0).is_bijective

    def test_deterministic_per_seed(self):
        assert random_mapping(64, seed=5) == random_mapping(64, seed=5)

    def test_different_seeds_differ(self):
        assert random_mapping(64, seed=5) != random_mapping(64, seed=6)

    def test_distance_near_eq17_expectation(self, torus, graph):
        # Footnote 2: random mappings at 64 nodes give ~4.06 hops expected.
        distances = [
            average_distance(graph, random_mapping(64, seed=s), torus)
            for s in range(8)
        ]
        mean = sum(distances) / len(distances)
        assert 3.5 < mean < 4.6


class TestStride:
    def test_unit_stride_is_identity(self):
        assert stride_mapping(64, 1) == identity_mapping(64)

    def test_rejects_non_coprime_stride(self):
        with pytest.raises(MappingError):
            stride_mapping(64, 8)

    def test_coprime_stride_is_bijective(self):
        assert stride_mapping(64, 9).is_bijective


class TestDimensionScale:
    def test_unit_multipliers_are_identity(self, torus):
        assert dimension_scale_mapping(torus, [1, 1]) == identity_mapping(64)

    def test_stretch_three_gives_three_hop_edges(self, torus, graph):
        mapping = dimension_scale_mapping(torus, [3, 3])
        assert average_distance(graph, mapping, torus) == pytest.approx(3.0)

    def test_mixed_multipliers(self, torus, graph):
        # x-edges stretched to 3 hops, y-edges stay at 1: average 2.
        mapping = dimension_scale_mapping(torus, [3, 1])
        assert average_distance(graph, mapping, torus) == pytest.approx(2.0)

    def test_rejects_non_coprime_multiplier(self, torus):
        with pytest.raises(MappingError):
            dimension_scale_mapping(torus, [2, 1])

    def test_rejects_wrong_multiplier_count(self, torus):
        with pytest.raises(MappingError):
            dimension_scale_mapping(torus, [3])


class TestTransposeAndShear:
    def test_shear_is_bijective(self, torus):
        assert shear_mapping(torus, factor=1).is_bijective

    def test_shear_stretches_sheared_dimension_only(self, torus, graph):
        # x-edges stay 1 hop; y-edges become diagonal (2 hops): mean 1.5.
        mapping = shear_mapping(torus, factor=1)
        assert average_distance(graph, mapping, torus) == pytest.approx(1.5)

    def test_shear_needs_two_dimensions(self):
        with pytest.raises(MappingError):
            shear_mapping(Torus(radix=8, dimensions=1))


class TestBitReversal:
    def test_is_bijective(self, torus):
        assert bit_reversal_mapping(torus).is_bijective

    def test_involution(self, torus):
        reverse = bit_reversal_mapping(torus).assignment
        assert [reverse[node] for node in reverse] == list(range(64))

    def test_spreads_neighbors(self, torus, graph):
        mapping = bit_reversal_mapping(torus)
        assert average_distance(graph, mapping, torus) > 2.0

    def test_rejects_non_power_of_two_radix(self):
        with pytest.raises(MappingError):
            bit_reversal_mapping(Torus(radix=6, dimensions=2))


def test_array_constructions_match_their_loop_definitions():
    # The strategies build int64 arrays; pin them to the per-thread
    # definitions, including a stride whose products would overflow int64.
    for stride in (9, -7, 10**18 + 1):
        assert stride_mapping(64, stride).assignment == tuple(
            (stride * i) % 64 for i in range(64)
        )
    assert identity_mapping(5).assignment == (0, 1, 2, 3, 4)
