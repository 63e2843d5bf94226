"""Tests for the swap engine's adjacency layouts and lane pricing."""

import numpy as np
import pytest

from repro.mapping.engine import SwapEngine
from repro.mapping.strategies import random_mapping
from repro.topology.graphs import star_graph, torus_neighbor_graph
from repro.topology.torus import Torus


@pytest.fixture
def torus():
    return Torus(radix=4, dimensions=2)


class TestAdjacency:
    def test_regular_graph_rows_are_views_of_the_csr(self, torus):
        graph = torus_neighbor_graph(4, 2)
        _, neighbors, weights = graph.incident_csr()
        nbr, wgt = SwapEngine(graph, torus).regular_adjacency()
        assert nbr.shape == wgt.shape == (16, 8)
        assert np.shares_memory(nbr, neighbors)
        assert np.shares_memory(wgt, weights)
        assert not nbr.flags.writeable and not wgt.flags.writeable

    def test_irregular_rows_are_windows_as_wide_as_the_call_needs(self):
        # A 4096-thread star: a threads x max_degree matrix would hold
        # 4096 x 8190 entries.  Two leaves need a window of width 2; the
        # hub widens only the call that draws it.
        torus = Torus(radix=64, dimensions=2)
        engine = SwapEngine(star_graph(4096), torus)
        assert engine.regular_adjacency() is None
        leaves = np.array([[5], [9]])
        neighbors, weights = engine.incident_rows(leaves)
        assert neighbors.shape == weights.shape == (2, 1, 2)
        assert (neighbors == 0).all()
        neighbors, weights = engine.incident_rows(np.array([[0], [9]]))
        assert neighbors.shape == (2, 1, 8190)
        assert weights[0].sum() == 8190 and weights[1].sum() == 2


class TestLanes:
    def test_lane_deltas_match_scalar_calls(self, torus):
        # Lanes of different chains, each endpoint in several roles, on
        # both layouts (the star's hub is thread 0).
        for graph in (torus_neighbor_graph(4, 2), star_graph(16)):
            engine = SwapEngine(graph, torus)
            position = np.stack(
                [np.array(random_mapping(16, seed=s).assignment) for s in range(3)]
            )
            rows = np.array([0, 2, 1, 2])
            a_ids = np.array([0, 3, 7, 15])
            b_ids = np.array([5, 0, 2, 1])
            lanes = engine.swap_delta(position, a_ids, b_ids, rows)
            assert lanes.shape == (4,)
            for lane, (row, a, b) in enumerate(zip(rows, a_ids, b_ids)):
                scalar = engine.swap_delta(position[row], int(a), int(b))
                assert np.ndim(scalar) == 0
                assert lanes[lane] == scalar
