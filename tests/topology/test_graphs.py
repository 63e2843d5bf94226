"""Tests for communication graphs."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology.graphs import (
    CommunicationGraph,
    all_to_all_graph,
    butterfly_exchange_graph,
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

    def test_out_neighbors(self):
        graph = CommunicationGraph.from_edges(4, [(0, 1), (0, 2), (3, 0)])
        assert dict(graph.out_neighbors(0)) == {1: 1.0, 2: 1.0}
        assert graph.degree_out(0) == 2
        assert graph.degree_out(1) == 0

    def test_out_neighbors_rejects_bad_thread(self):
        graph = CommunicationGraph.from_edges(4, [(0, 1)])
        with pytest.raises(TopologyError):
            list(graph.out_neighbors(7))


class TestTorusNeighborGraph:
    def test_paper_application_shape(self):
        # 64 threads, each reading 4 neighbors: 256 directed edges.
        graph = torus_neighbor_graph(8, 2)
        assert graph.threads == 64
        assert len(graph.weights) == 256

    def test_every_thread_has_degree_2n(self):
        graph = torus_neighbor_graph(8, 2)
        assert all(graph.degree_out(t) == 4 for t in range(64))

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
        assert len(ring_graph(8, bidirectional=False).weights) == 8

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
        assert dict(graph.out_neighbors(0)) == {1: 1.0, 3: 1.0}

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
        assert array_graph.edge_count == dict_graph.edge_count
        for thread in range(6):
            assert list(array_graph.out_neighbors(thread)) == list(
                dict_graph.out_neighbors(thread)
            )
        for ours, theirs in zip(
            array_graph.incident_csr(), dict_graph.incident_csr()
        ):
            assert np.array_equal(ours, theirs)

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

    def test_large_torus_neighbor_graph_is_array_backed(self):
        import repro.topology.graphs as graphs_module

        original = graphs_module.DISTANCE_TABLE_MAX_NODES
        graphs_module.DISTANCE_TABLE_MAX_NODES = 1
        try:
            fast = torus_neighbor_graph(4, 2)
        finally:
            graphs_module.DISTANCE_TABLE_MAX_NODES = original
        slow = torus_neighbor_graph(4, 2)
        assert not fast.weights and slow.weights
        assert list(fast.edges()) == list(slow.edges())
        assert fast.total_weight == slow.total_weight


GRAPHS = {
    "torus": lambda: torus_neighbor_graph(8, 2),
    "torus-3d": lambda: torus_neighbor_graph(3, 3),
    "ring": lambda: ring_graph(9),
    "star": lambda: star_graph(7, center=4),
    "butterfly": lambda: butterfly_exchange_graph(16),
    "all-to-all": lambda: all_to_all_graph(10),
}


def edge_order_filter(graph, thread):
    """A thread's out-edges by scanning every edge, in edge order."""
    return [(dst, weight) for src, dst, weight in graph.edges() if src == thread]


def shuffled_array_graph(graph, seed=0):
    """The same edges, array-backed and in a scrambled edge order."""
    src, dst, weight = graph.edge_arrays()
    order = np.random.default_rng(seed).permutation(src.size)
    return CommunicationGraph.from_arrays(
        graph.threads, src[order], dst[order], weight[order]
    )


class TestOutAdjacency:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_out_neighbors_equal_edge_order_filter(self, name):
        dict_graph = GRAPHS[name]()
        for graph in (dict_graph, shuffled_array_graph(dict_graph)):
            for thread in range(graph.threads):
                assert list(graph.out_neighbors(thread)) == edge_order_filter(
                    graph, thread
                ), (name, thread)
                assert graph.degree_out(thread) == len(
                    edge_order_filter(graph, thread)
                )

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

    def test_out_neighbors_rejects_bad_thread_eagerly(self):
        graph = ring_graph(4)
        with pytest.raises(TopologyError):
            graph.out_neighbors(-1)
