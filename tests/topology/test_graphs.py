"""Tests for communication graphs."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology.torus import Torus
from repro.topology.graphs import (
    CommunicationGraph,
    all_to_all_graph,
    nearest_neighbor_grid_graph,
    ring_graph,
    star_graph,
    torus_neighbor_graph,
)


class TestCommunicationGraph:
    def test_rejects_out_of_range_edges(self):
        with pytest.raises(TopologyError):
            CommunicationGraph(threads=4, weights={(0, 4): 1.0})

    def test_rejects_self_edges(self):
        with pytest.raises(TopologyError):
            CommunicationGraph(threads=4, weights={(2, 2): 1.0})

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(TopologyError):
            CommunicationGraph(threads=4, weights={(0, 1): 0.0})

    def test_from_edges_accumulates_duplicates(self):
        graph = CommunicationGraph.from_edges(4, [(0, 1), (0, 1), (1, 2)])
        assert graph.weights[(0, 1)] == pytest.approx(2.0)
        assert graph.total_weight == pytest.approx(3.0)


def neighbor_loop_edges(radix, dimensions):
    """The torus-neighbor edges by the node-major loop over
    ``Torus.neighbors``, in that loop's order."""
    torus = Torus(radix=radix, dimensions=dimensions)
    return [
        (node, neighbor)
        for node in torus.nodes()
        for neighbor in torus.neighbors(node)
    ]


class TestTorusNeighborGraph:
    @pytest.mark.parametrize(
        "radix,dimensions",
        [(k, n) for k in range(1, 10) for n in range(1, 4)],
    )
    def test_builder_is_the_neighbor_loop(self, radix, dimensions):
        graph = torus_neighbor_graph(radix, dimensions)
        edges = neighbor_loop_edges(radix, dimensions)
        assert graph.threads == radix**dimensions
        assert list(graph.edges()) == [(a, b, 1.0) for a, b in edges]
        assert graph == CommunicationGraph.from_edges(graph.threads, edges)

    def test_paper_application_shape(self):
        # 64 threads, each reading 4 neighbors: 256 directed edges.
        graph = torus_neighbor_graph(8, 2)
        assert graph.threads == 64
        assert len(graph.weights) == 256

    def test_every_thread_has_degree_2n(self):
        graph = torus_neighbor_graph(8, 2)
        assert np.diff(graph.out_csr()[0]).tolist() == [4] * 64

    def test_edges_are_symmetric(self):
        graph = torus_neighbor_graph(4, 2)
        for (src, dst) in graph.weights:
            assert (dst, src) in graph.weights

    def test_one_dimensional_case_is_a_ring(self):
        graph = torus_neighbor_graph(6, 1)
        ring = ring_graph(6)
        assert set(graph.weights) == set(ring.weights)


class TestOtherGraphs:
    def test_ring_edge_count(self):
        assert len(ring_graph(8).weights) == 16

    def test_ring_rejects_tiny(self):
        with pytest.raises(TopologyError):
            ring_graph(1)

    def test_all_to_all_has_no_locality_structure(self):
        graph = all_to_all_graph(5)
        assert len(graph.weights) == 20
        assert all(w == 1.0 for w in graph.weights.values())

    def test_grid_has_no_wraparound(self):
        graph = nearest_neighbor_grid_graph(3, 3)
        # Corner thread 0 talks to exactly right (1) and down (3).
        assert {dst: w for src, dst, w in graph.edges() if src == 0} == {
            1: 1.0, 3: 1.0
        }

    def test_grid_edge_count(self):
        # 3x3 grid: 12 undirected adjacencies -> 24 directed edges.
        assert len(nearest_neighbor_grid_graph(3, 3).weights) == 24

    def test_grid_rejects_empty(self):
        with pytest.raises(TopologyError):
            nearest_neighbor_grid_graph(0, 3)


class TestArrayBackedGraphs:
    def test_from_arrays_matches_dict_layout(self):
        import numpy as np

        dict_graph = ring_graph(6)
        src, dst, weight = dict_graph.edge_arrays()
        array_graph = CommunicationGraph.from_arrays(6, src, dst, weight)
        assert list(array_graph.edges()) == list(dict_graph.edges())
        assert array_graph.total_weight == dict_graph.total_weight
        for ours, theirs in zip(
            array_graph.incident_csr(), dict_graph.incident_csr()
        ):
            assert np.array_equal(ours, theirs)

    def test_weight_sums_are_the_layouts_own_expressions(self):
        # One expression for every constructor: the numpy sum of the
        # edge weights, summed once per graph.  On ten edges of 0.1 it is
        # 1.0, where Python's left-to-right sum gives 0.9999999999999999.
        edges = [(thread, (thread + 1) % 10) for thread in range(10)]
        graphs = [
            CommunicationGraph(threads=10, weights=dict.fromkeys(edges, 0.1)),
            CommunicationGraph.from_arrays(10, *zip(*edges), [0.1] * 10),
        ]
        for graph in graphs:
            assert graph.total_weight == float(np.sum(graph.edge_arrays()[2]))
            assert graph.total_weight == 1.0
            assert graph.total_weight is graph.total_weight
            assert graph.edge_weight_sum() is graph.total_weight
        assert sum(graphs[0].weights.values()) == 0.9999999999999999

    def test_from_arrays_default_unit_weights(self):
        graph = CommunicationGraph.from_arrays(3, [0, 1], [1, 2])
        assert graph.total_weight == 2.0

    def test_from_arrays_rejects_bad_edges(self):
        with pytest.raises(TopologyError):
            CommunicationGraph.from_arrays(3, [0], [3])
        with pytest.raises(TopologyError):
            CommunicationGraph.from_arrays(3, [1], [1])
        with pytest.raises(TopologyError):
            CommunicationGraph.from_arrays(3, [0, 0], [1, 1])
        with pytest.raises(TopologyError):
            CommunicationGraph.from_arrays(3, [0], [1], [0.0])

    def test_equality_and_hash_follow_the_edges(self):
        import copy
        import pickle

        first = CommunicationGraph.from_arrays(4, [0, 1], [1, 2])
        other = CommunicationGraph.from_arrays(4, [2, 3], [3, 0], [5.0, 7.0])
        assert first != other
        assert CommunicationGraph.from_arrays(4, [0, 1], [1, 2], [1.0, 2.0]) != first
        assert CommunicationGraph.from_arrays(5, [0, 1], [1, 2]) != first
        # Edge order is part of the graph: it orders every CSR row.
        assert CommunicationGraph.from_arrays(4, [1, 0], [2, 1]) != first
        same = [
            CommunicationGraph.from_edges(4, [(0, 1), (1, 2)]),
            CommunicationGraph(threads=4, weights={(0, 1): 1.0, (1, 2): 1.0}),
            pickle.loads(pickle.dumps(first)),
            copy.deepcopy(first),
        ]
        for graph in same:
            assert graph == first and hash(graph) == hash(first)
            assert repr(graph) == repr(first)
        assert len({first, other, *same}) == 2
        assert repr(first) == (
            "CommunicationGraph(threads=4, weights={(0, 1): 1.0, (1, 2): 1.0})"
        )

    def test_graphs_are_immutable(self):
        import dataclasses

        graph = CommunicationGraph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph.threads = 4
        with pytest.raises(TypeError):
            graph.weights[(2, 0)] = 1.0
        assert graph.weights is graph.weights
        assert dict(graph.weights) == {(0, 1): 1.0, (1, 2): 1.0}
        for array in graph.edge_arrays():
            assert not array.flags.writeable


class TestOutAdjacency:
    def test_out_csr_layout(self):
        graph = CommunicationGraph.from_edges(4, [(2, 0), (0, 3), (2, 1), (0, 1)])
        indptr, neighbors, weights = graph.out_csr()
        assert indptr.tolist() == [0, 2, 2, 4, 4]
        assert neighbors.tolist() == [3, 1, 0, 1]
        assert weights.tolist() == [1.0, 1.0, 1.0, 1.0]
        assert graph.out_csr() is graph.out_csr()
        assert not neighbors.flags.writeable

    def test_csr_rows_are_the_stable_argsort_layout(self, monkeypatch):
        # The counting placement must give byte for byte the rows of the
        # stable argsort it replaced, and so must the argsort fallback
        # used when the swap kernel cannot load.
        import random

        from repro.mapping import engine

        def argsort_rows(owners, others, weights, threads):
            order = np.argsort(owners, kind="stable")
            indptr = np.zeros(threads + 1, dtype=np.intp)
            np.cumsum(np.bincount(owners, minlength=threads), out=indptr[1:])
            return indptr, others[order], weights[order]

        def expected(graph):
            src, dst, weight = graph.edge_arrays()
            owners = np.stack((src, dst), axis=1).ravel()
            others = np.stack((dst, src), axis=1).ravel()
            return (
                argsort_rows(src, dst, weight, graph.threads),
                argsort_rows(owners, others, np.repeat(weight, 2), graph.threads),
            )

        rng = random.Random(3)
        irregular = {}
        for _ in range(300):
            a, b = rng.randrange(60), rng.randrange(60)
            if a != b:
                irregular[(a, b)] = float(rng.randrange(1, 9))
        graphs = [
            torus_neighbor_graph(5, 2),
            torus_neighbor_graph(4, 3),
            torus_neighbor_graph(64, 2),
            CommunicationGraph(threads=60, weights=irregular),
            star_graph(40),
            # Threads 0, 3, 6 and 7 have no edges at all.
            CommunicationGraph.from_edges(8, [(1, 2), (5, 4), (2, 1), (4, 1)]),
        ]
        assert engine.load() is not None
        for load in (engine.load, lambda: None):
            monkeypatch.setattr(engine, "load", load)
            for graph in graphs:
                built = CommunicationGraph(threads=graph.threads, weights=graph.weights)
                for ours, theirs in zip(
                    (built.out_csr(), built.incident_csr()), expected(graph)
                ):
                    for a, b in zip(ours, theirs):
                        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
