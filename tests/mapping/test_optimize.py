"""Tests for the hill-climbing mapping optimizer."""

import pytest

from repro.errors import MappingError
from repro.mapping.base import Mapping
from repro.mapping.evaluate import average_distance
from repro.mapping.optimize import (
    maximize_distance,
    minimize_distance,
    optimize_mapping,
)
from repro.mapping.strategies import identity_mapping, random_mapping
from repro.topology.graphs import torus_neighbor_graph
from repro.topology.torus import Torus


@pytest.fixture
def torus():
    return Torus(radix=4, dimensions=2)


@pytest.fixture
def graph():
    return torus_neighbor_graph(4, 2)


class TestMinimize:
    def test_improves_random_start(self, torus, graph):
        start = random_mapping(16, seed=7)
        result = minimize_distance(graph, torus, start, steps=3000, seed=1)
        assert result.distance < result.initial_distance

    def test_reported_distance_matches_reevaluation(self, torus, graph):
        result = minimize_distance(
            graph, torus, random_mapping(16, seed=7), steps=1500, seed=1
        )
        assert result.distance == pytest.approx(
            average_distance(graph, result.mapping, torus)
        )

    def test_cannot_improve_ideal(self, torus, graph):
        result = minimize_distance(
            graph, torus, identity_mapping(16), steps=500, seed=1
        )
        assert result.distance == pytest.approx(1.0)
        assert result.accepted_swaps == 0

    def test_result_is_bijective(self, torus, graph):
        result = minimize_distance(
            graph, torus, random_mapping(16, seed=7), steps=500, seed=1
        )
        assert result.mapping.is_bijective


class TestMaximize:
    def test_worsens_random_start(self, torus, graph):
        start = random_mapping(16, seed=7)
        result = maximize_distance(graph, torus, start, steps=3000, seed=1)
        assert result.distance > result.initial_distance

    def test_beats_random_expectation(self, torus, graph):
        # On a 4x4 torus, random mappings average ~2.1 hops; an
        # adversarial mapping should clearly exceed that.
        result = maximize_distance(
            graph, torus, random_mapping(16, seed=7), steps=4000, seed=1
        )
        assert result.distance > 2.5


class TestDeterminismAndValidation:
    def test_deterministic_given_seed(self, torus, graph):
        a = optimize_mapping(
            graph, torus, random_mapping(16, seed=7), steps=800, seed=42
        )
        b = optimize_mapping(
            graph, torus, random_mapping(16, seed=7), steps=800, seed=42
        )
        assert a.mapping == b.mapping
        assert a.distance == b.distance

    def test_zero_steps_returns_start(self, torus, graph):
        start = random_mapping(16, seed=7)
        result = optimize_mapping(graph, torus, start, steps=0, seed=1)
        assert result.mapping == start
        assert result.attempted_swaps == 0

    def test_rejects_negative_steps(self, torus, graph):
        with pytest.raises(MappingError):
            optimize_mapping(
                graph, torus, identity_mapping(16), steps=-1, seed=1
            )

    def test_rejects_non_bijective_start(self, torus, graph):
        squashed = Mapping(assignment=(0,) * 16, processors=16)
        with pytest.raises(MappingError):
            optimize_mapping(graph, torus, squashed, steps=10, seed=1)

    def test_rejects_size_mismatches(self, torus, graph):
        with pytest.raises(MappingError):
            optimize_mapping(graph, torus, identity_mapping(8), steps=10, seed=1)
        with pytest.raises(MappingError):
            optimize_mapping(
                graph, Torus(radix=8, dimensions=2), identity_mapping(16),
                steps=10, seed=1,
            )

    def test_rejects_edgeless_graph(self, torus):
        # Used to surface as a ZeroDivisionError after the whole climb.
        from repro.topology.graphs import CommunicationGraph

        edgeless = CommunicationGraph(threads=16, weights={})
        with pytest.raises(MappingError, match="no edges"):
            optimize_mapping(edgeless, torus, identity_mapping(16), steps=10)

    def test_swap_accounting(self, torus, graph):
        result = optimize_mapping(
            graph, torus, random_mapping(16, seed=7), steps=300, seed=3
        )
        assert 0 <= result.accepted_swaps <= result.attempted_swaps == 300
