"""Tests for the additional communication graphs."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.mapping.evaluate import average_distance
from repro.mapping.strategies import identity_mapping
from repro.topology.graphs import (
    butterfly_exchange_graph,
    nine_point_stencil_graph,
    star_graph,
)
from repro.topology.torus import Torus


class TestButterflyExchange:
    def test_degree_is_log2(self):
        graph = butterfly_exchange_graph(64)
        assert np.diff(graph.out_csr()[0]).tolist() == [6] * 64

    def test_edges_are_bit_flips(self):
        graph = butterfly_exchange_graph(16)
        for (src, dst) in graph.weights:
            xor = src ^ dst
            assert xor and (xor & (xor - 1)) == 0  # single bit set

    def test_symmetric(self):
        graph = butterfly_exchange_graph(16)
        for (src, dst) in graph.weights:
            assert (dst, src) in graph.weights

    @pytest.mark.parametrize("bad", [0, 1, 12, 100])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(TopologyError):
            butterfly_exchange_graph(bad)


class TestStar:
    def test_center_degree(self):
        degrees = np.diff(star_graph(16).out_csr()[0]).tolist()
        assert degrees == [15] + [1] * 15

    def test_rejects_tiny(self):
        with pytest.raises(TopologyError):
            star_graph(1)

    def test_average_distance_dominated_by_center_placement(self):
        torus = Torus(radix=4, dimensions=2)
        graph = star_graph(16)
        distance = average_distance(graph, identity_mapping(16), torus)
        # Mean torus distance from node 0 to everyone else (= 32/15).
        expected = sum(torus.distance(0, n) for n in range(1, 16)) / 15
        assert distance == pytest.approx(expected)


class TestNinePointStencil:
    def test_interior_degree_is_eight(self):
        graph = nine_point_stencil_graph(4, 4)
        assert np.diff(graph.out_csr()[0])[5] == 8

    def test_corner_degree_is_three(self):
        graph = nine_point_stencil_graph(4, 4)
        assert np.diff(graph.out_csr()[0])[0] == 3

    def test_symmetric(self):
        graph = nine_point_stencil_graph(3, 5)
        for (src, dst) in graph.weights:
            assert (dst, src) in graph.weights

    def test_rejects_empty(self):
        with pytest.raises(TopologyError):
            nine_point_stencil_graph(0, 4)

    def test_row_major_placement_is_decent(self):
        # Diagonal edges cost two torus hops; straight edges one.
        torus = Torus(radix=4, dimensions=2)
        graph = nine_point_stencil_graph(4, 4)
        distance = average_distance(graph, identity_mapping(16), torus)
        assert 1.0 < distance < 1.6
