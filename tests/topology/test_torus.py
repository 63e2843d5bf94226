"""Tests for the discrete k-ary n-cube torus."""

import pytest

from repro.errors import TopologyError
from repro.topology.torus import Torus


def ecube_route(torus, source, destination):
    """The nodes an e-cube route visits, from ``Torus.route_hops``."""
    return [node for node, _, _ in torus.route_hops(source, destination)] + [
        destination
    ]


@pytest.fixture
def alewife_torus():
    # The paper's 64-node, radix-8, 2-D machine.
    return Torus(radix=8, dimensions=2)


class TestConstruction:
    def test_node_count(self, alewife_torus):
        assert alewife_torus.node_count == 64

    def test_rejects_bad_radix(self):
        with pytest.raises(TopologyError):
            Torus(radix=0, dimensions=2)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(TopologyError):
            Torus(radix=4, dimensions=0)


class TestCoordinates:
    def test_roundtrip_all_nodes(self, alewife_torus):
        for node in alewife_torus.nodes():
            assert alewife_torus.node_at(alewife_torus.coordinates(node)) == node

    def test_dimension_zero_is_least_significant(self, alewife_torus):
        assert alewife_torus.coordinates(9) == (1, 1)
        assert alewife_torus.coordinates(8) == (0, 1)

    def test_rejects_out_of_range_node(self, alewife_torus):
        with pytest.raises(TopologyError):
            alewife_torus.coordinates(64)
        with pytest.raises(TopologyError):
            alewife_torus.coordinates(-1)

    def test_rejects_bad_coordinate_tuple(self, alewife_torus):
        with pytest.raises(TopologyError):
            alewife_torus.node_at((1,))
        with pytest.raises(TopologyError):
            alewife_torus.node_at((8, 0))


class TestDistance:
    def test_distance_to_self_is_zero(self, alewife_torus):
        assert alewife_torus.distance(13, 13) == 0

    def test_wraparound_shorter_than_direct(self, alewife_torus):
        # Positions 0 and 7 on a radix-8 ring are one hop apart.
        assert alewife_torus.ring_distance(0, 7) == 1

    def test_antipodal_ring_distance(self, alewife_torus):
        assert alewife_torus.ring_distance(0, 4) == 4

    def test_distance_is_symmetric(self, alewife_torus):
        for a, b in [(0, 63), (5, 40), (17, 18)]:
            assert alewife_torus.distance(a, b) == alewife_torus.distance(b, a)

    def test_triangle_inequality_spot_check(self, alewife_torus):
        for a, b, c in [(0, 27, 63), (3, 50, 12)]:
            assert alewife_torus.distance(a, c) <= (
                alewife_torus.distance(a, b) + alewife_torus.distance(b, c)
            )

    def test_distance_vector_magnitudes_sum_to_distance(self, alewife_torus):
        for a, b in [(0, 63), (5, 40), (17, 18), (0, 36)]:
            vector = alewife_torus.distance_vector(a, b)
            assert sum(abs(v) for v in vector) == alewife_torus.distance(a, b)

    def test_diameter(self, alewife_torus):
        assert alewife_torus.diameter() == 8
        assert Torus(radix=5, dimensions=3).diameter() == 6


class TestNeighbors:
    def test_four_neighbors_in_2d(self, alewife_torus):
        assert len(alewife_torus.neighbors(0)) == 4

    def test_neighbors_are_one_hop(self, alewife_torus):
        for neighbor in alewife_torus.neighbors(27):
            assert alewife_torus.distance(27, neighbor) == 1

    def test_neighbor_wraps(self, alewife_torus):
        # Node 7 is (7, 0); its +x neighbor wraps to (0, 0) = node 0.
        assert alewife_torus.neighbor(7, 0, 1) == 0

    def test_neighbor_relation_symmetric(self, alewife_torus):
        for node in (0, 13, 63):
            for other in alewife_torus.neighbors(node):
                assert node in alewife_torus.neighbors(other)

    def test_radix2_deduplicates(self):
        tiny = Torus(radix=2, dimensions=2)
        # +1 and -1 coincide on a 2-ring: only 2 distinct neighbors.
        assert len(tiny.neighbors(0)) == 2

    def test_rejects_bad_dimension_or_step(self, alewife_torus):
        with pytest.raises(TopologyError):
            alewife_torus.neighbor(0, 2, 1)
        with pytest.raises(TopologyError):
            alewife_torus.neighbor(0, 0, 2)


class TestEcubeRouting:
    def test_route_endpoints(self, alewife_torus):
        route = ecube_route(alewife_torus, 3, 60)
        assert route[0] == 3
        assert route[-1] == 60

    def test_route_length_is_distance_plus_one(self, alewife_torus):
        for a, b in [(0, 63), (5, 40), (17, 18), (9, 9)]:
            route = ecube_route(alewife_torus, a, b)
            assert len(route) == alewife_torus.distance(a, b) + 1

    def test_all_pairs_route_total_matches_eq17(self, alewife_torus):
        # Total hops over every ordered pair = N * (N - 1) * the Eq 17
        # mean distance (1024/252 at 64 nodes, footnote 2).
        nodes = list(alewife_torus.nodes())
        hops = sum(
            len(ecube_route(alewife_torus, a, b)) - 1
            for a in nodes
            for b in nodes
            if a != b
        )
        assert hops == round(64 * 63 * (1024 / 252))

    def test_route_steps_are_single_hops(self, alewife_torus):
        route = ecube_route(alewife_torus, 0, 45)
        for here, there in zip(route, route[1:]):
            assert alewife_torus.distance(here, there) == 1

    def test_dimension_order(self, alewife_torus):
        # E-cube resolves dimension 0 before dimension 1: from (0,0) to
        # (2,2) the first hops move only in x.
        route = ecube_route(alewife_torus, 0, alewife_torus.node_at((2, 2)))
        coords = [alewife_torus.coordinates(n) for n in route]
        assert coords[1] == (1, 0)
        assert coords[2] == (2, 0)
        assert coords[3] == (2, 1)


class TestAveragePairDistance:
    def test_matches_eq17_for_even_radix(self, alewife_torus):
        # Eq 17: 2*8^3 / (4*63) ~= 4.063.
        assert alewife_torus.average_pair_distance() == pytest.approx(
            2 * 8**3 / (4 * 63)
        )

    def test_matches_brute_force_small(self):
        torus = Torus(radix=4, dimensions=2)
        pairs = [
            torus.distance(a, b)
            for a in torus.nodes()
            for b in torus.nodes()
            if a != b
        ]
        assert torus.average_pair_distance() == pytest.approx(
            sum(pairs) / len(pairs)
        )

    def test_single_node_has_no_pairs(self):
        with pytest.raises(TopologyError):
            Torus(radix=1, dimensions=2).average_pair_distance()
