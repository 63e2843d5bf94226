"""Property-based tests for torus geometry and mappings."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping.evaluate import average_distance, distance_histogram
from repro.mapping.strategies import random_mapping
from repro.topology.distance import (
    random_traffic_distance,
    random_traffic_distance_exact,
)
from repro.topology.graphs import torus_neighbor_graph
from repro.topology.torus import Torus

radices = st.integers(min_value=2, max_value=9)
small_dims = st.integers(min_value=1, max_value=3)


def torus_and_nodes():
    return radices.flatmap(
        lambda k: small_dims.flatmap(
            lambda n: st.tuples(
                st.just(Torus(radix=k, dimensions=n)),
                st.integers(min_value=0, max_value=k**n - 1),
                st.integers(min_value=0, max_value=k**n - 1),
            )
        )
    )


class TestTorusMetricProperties:
    @settings(max_examples=150)
    @given(torus_and_nodes())
    def test_distance_is_a_metric(self, tna):
        torus, a, b = tna
        assert torus.distance(a, b) == torus.distance(b, a)
        assert (torus.distance(a, b) == 0) == (a == b)
        assert torus.distance(a, b) <= torus.diameter()

    @settings(max_examples=150)
    @given(torus_and_nodes())
    def test_coordinate_roundtrip(self, tna):
        torus, a, _ = tna
        assert torus.node_at(torus.coordinates(a)) == a

    @settings(max_examples=100)
    @given(torus_and_nodes())
    def test_ecube_route_is_shortest(self, tna):
        torus, a, b = tna
        route = [node for node, _, _ in torus.route_hops(a, b)] + [b]
        assert len(route) - 1 == torus.distance(a, b)
        for here, there in zip(route, route[1:]):
            assert torus.distance(here, there) == 1

    @settings(max_examples=100)
    @given(torus_and_nodes())
    def test_distance_vector_consistency(self, tna):
        torus, a, b = tna
        vector = torus.distance_vector(a, b)
        assert sum(abs(v) for v in vector) == torus.distance(a, b)
        # Applying the vector reaches the destination.
        coords = list(torus.coordinates(a))
        for dim, offset in enumerate(vector):
            coords[dim] = (coords[dim] + offset) % torus.radix
        assert torus.node_at(coords) == b


class TestEq17Properties:
    @settings(max_examples=60)
    @given(radices, small_dims)
    def test_closed_form_bounds_exact(self, radix, dims):
        closed = random_traffic_distance(radix, dims)
        exact = random_traffic_distance_exact(radix, dims)
        if radix % 2 == 0:
            assert abs(closed - exact) < 1e-9
        else:
            assert closed >= exact

    @settings(max_examples=60)
    @given(st.floats(min_value=2.0, max_value=1000.0), small_dims)
    def test_distance_below_diameter_scale(self, radix, dims):
        # Mean distance cannot exceed n*k/2 (the torus diameter scale).
        assert random_traffic_distance(radix, dims) <= dims * radix / 2.0


class TestMappingProperties:
    @settings(max_examples=40)
    @given(st.integers(min_value=2, max_value=6), st.integers(0, 1000))
    def test_random_mapping_distance_bounds(self, radix, seed):
        torus = Torus(radix=radix, dimensions=2)
        graph = torus_neighbor_graph(radix, 2)
        mapping = random_mapping(torus.node_count, seed)
        avg = average_distance(graph, mapping, torus)
        assert 0.0 <= avg <= torus.diameter()

    @settings(max_examples=40)
    @given(st.integers(min_value=2, max_value=6), st.integers(0, 1000))
    def test_histogram_mass_conserved(self, radix, seed):
        torus = Torus(radix=radix, dimensions=2)
        graph = torus_neighbor_graph(radix, 2)
        mapping = random_mapping(torus.node_count, seed)
        histogram = distance_histogram(graph, mapping, torus)
        assert sum(histogram.values()) == graph.total_weight
        mean = sum(d * w for d, w in histogram.items()) / graph.total_weight
        assert abs(mean - average_distance(graph, mapping, torus)) < 1e-9
