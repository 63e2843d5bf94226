"""Property tests for the vectorized locality engine.

Pins the array kernels against their loop-based executable
specifications: the delta backend's all-pairs table and broadcast
distances against the digit-based ``Torus.distance``, the closed-form
ring sum against brute force, and the gather-based evaluation kernels
against the per-edge loops kept alive in :mod:`repro.mapping.reference`.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping.evaluate import average_distance, distance_histogram
from repro.mapping.strategies import random_mapping
from repro.mapping.reference import (
    reference_average_distance,
    reference_distance_histogram,
)
from repro.topology.graphs import CommunicationGraph
from repro.topology.torus import DeltaBackend, Torus

# Shapes small enough that brute-force loops stay fast but covering
# odd/even radix and 1..3 dimensions (N up to a few hundred nodes).
shapes = st.tuples(
    st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=3)
)


class TestDistanceTable:
    @settings(max_examples=30, deadline=None)
    @given(shapes, st.randoms(use_true_random=False))
    def test_table_matches_digit_distance(self, shape, rng):
        radix, dimensions = shape
        torus = Torus(radix=radix, dimensions=dimensions)
        nodes = np.arange(torus.node_count)
        table = DeltaBackend(torus).pairwise(nodes[:, None], nodes[None, :])
        assert table.shape == (torus.node_count, torus.node_count)
        for _ in range(20):
            a = rng.randrange(torus.node_count)
            b = rng.randrange(torus.node_count)
            assert int(table[a, b]) == torus.distance(a, b)

    @settings(max_examples=30, deadline=None)
    @given(shapes, st.randoms(use_true_random=False))
    def test_pairwise_matches_digit_distance(self, shape, rng):
        radix, dimensions = shape
        torus = Torus(radix=radix, dimensions=dimensions)
        sources = np.array(
            [rng.randrange(torus.node_count) for _ in range(16)]
        )
        destinations = np.array(
            [rng.randrange(torus.node_count) for _ in range(16)]
        )
        hops = DeltaBackend(torus).pairwise(sources, destinations)
        for src, dst, got in zip(sources, destinations, hops):
            assert int(got) == torus.distance(int(src), int(dst))

    @settings(max_examples=30, deadline=None)
    @given(shapes)
    def test_coordinate_array_matches_coordinates(self, shape):
        radix, dimensions = shape
        torus = Torus(radix=radix, dimensions=dimensions)
        coords = torus.coordinate_array()
        assert coords.shape == (dimensions, torus.node_count)
        for node in range(torus.node_count):
            assert tuple(coords[:, node]) == torus.coordinates(node)

    @settings(max_examples=40, deadline=None)
    @given(shapes)
    def test_average_pair_distance_closed_form(self, shape):
        # The closed-form k*k//4 ring sum against an explicit all-pairs
        # brute force — exact for odd and even radix alike.
        radix, dimensions = shape
        torus = Torus(radix=radix, dimensions=dimensions)
        count = torus.node_count
        total = sum(
            torus.distance(a, b) for a in range(count) for b in range(count)
        )
        if count > 1:
            assert torus.average_pair_distance() == total / (count * (count - 1))


def _random_integer_graph(threads, rng):
    """A random connected-ish graph with small integer weights."""
    edges = {}
    for _ in range(2 * threads):
        src = rng.randrange(threads)
        dst = rng.randrange(threads)
        if src == dst:
            continue
        edges[(src, dst)] = float(rng.randrange(1, 5))
    if not edges:
        edges[(0, 1)] = 1.0
    return CommunicationGraph(threads=threads, weights=edges)


class TestEvaluateParity:
    @settings(max_examples=25, deadline=None)
    @given(
        st.tuples(
            st.integers(min_value=2, max_value=5),
            st.integers(min_value=1, max_value=3),
        ),
        st.integers(min_value=0, max_value=2**16),
        st.randoms(use_true_random=False),
    )
    def test_average_distance_matches_reference(self, shape, seed, rng):
        radix, dimensions = shape
        torus = Torus(radix=radix, dimensions=dimensions)
        graph = _random_integer_graph(torus.node_count, rng)
        mapping = random_mapping(torus.node_count, seed=seed)
        assert average_distance(graph, mapping, torus) == (
            reference_average_distance(graph, mapping, torus)
        )

    @settings(max_examples=25, deadline=None)
    @given(
        st.tuples(
            st.integers(min_value=2, max_value=5),
            st.integers(min_value=1, max_value=3),
        ),
        st.integers(min_value=0, max_value=2**16),
        st.randoms(use_true_random=False),
    )
    def test_histogram_matches_reference(self, shape, seed, rng):
        radix, dimensions = shape
        torus = Torus(radix=radix, dimensions=dimensions)
        graph = _random_integer_graph(torus.node_count, rng)
        mapping = random_mapping(torus.node_count, seed=seed)
        assert distance_histogram(graph, mapping, torus) == (
            reference_distance_histogram(graph, mapping, torus)
        )
