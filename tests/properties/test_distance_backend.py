"""Oracle suite for the delta-compressed distance backend.

The scalar :meth:`Torus.distance` (a per-pair digit walk) is the
oracle: the delta backend (per-dimension ring rows gathered over
coordinate deltas), the one bulk distance path at every torus size,
must reproduce it on every pair of the small shapes — k in 2..9, n in
1..3, including the even-radix half-way ties — and on seeded pair
samples of larger tori up to 10^6 nodes.  Bad node ids raise
:class:`TopologyError` at every size, and the annealer's reported
distances equal the backend's evaluation of the mappings it returns.
"""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.mapping.anneal import anneal_mapping
from repro.mapping.chains import anneal_chains
from repro.mapping.evaluate import average_distance
from repro.mapping.reference import reference_anneal_mapping
from repro.mapping.strategies import random_mapping
from repro.topology.graphs import torus_neighbor_graph
from repro.topology.torus import DeltaBackend, Torus, distance_backend

# Every (k, n) with k in 1..9 and n in 1..4.
GRID = [(k, n) for k in range(1, 10) for n in range(1, 5)]


@pytest.mark.parametrize("radix,dimensions", GRID)
def test_delta_matches_dense_bit_for_bit(radix, dimensions):
    # The dense oracle: the N x N table of scalar distances.  For n <= 3
    # (up to 729 nodes) every unordered pair is checked, and the
    # backend's table must be symmetric, as Torus.distance is by
    # construction; beyond that, seeded source rows.
    torus = Torus(radix=radix, dimensions=dimensions)
    count = torus.node_count
    nodes = np.arange(count)
    distance = torus.distance
    if dimensions <= 3:
        got = DeltaBackend(torus).pairwise(nodes[:, None], nodes[None, :])
        assert np.array_equal(got, got.T)
        rows = [(a, range(a, count)) for a in range(count)]
    else:
        rng = np.random.default_rng(radix * 100 + dimensions)
        sources = rng.integers(0, count, size=min(count, 8))
        got = DeltaBackend(torus).pairwise(sources[:, None], nodes[None, :])
        rows = [(a, range(count)) for a in sources.tolist()]
    assert got.dtype == np.int64
    for index, (source, destinations) in enumerate(rows):
        assert got[index, destinations.start:].tolist() == [
            distance(source, node) for node in destinations
        ]


@pytest.mark.parametrize("radix", [2, 4, 6, 8])
def test_even_radix_halfway_tie(radix):
    # The antipodal offset k/2 is the same distance both ways around the
    # ring; the compressed row must agree with the digit walk exactly.
    torus = Torus(radix=radix, dimensions=2)
    delta = DeltaBackend(torus)
    half = radix // 2
    antipode = torus.node_at((half, half))
    assert int(delta.pairwise(0, antipode)) == torus.distance(0, antipode)
    assert int(delta.pairwise(0, antipode)) == 2 * half


@pytest.mark.parametrize(
    "radix,dimensions",
    [(3, 2), (7, 3), (9, 4), (316, 2), (1000, 2), (16, 5)],
)
def test_delta_matches_digit_walk(radix, dimensions):
    # Seeded pairs, up to the 10^5- and 10^6-node tori of locality-scale.
    torus = Torus(radix=radix, dimensions=dimensions)
    rng = np.random.default_rng(7)
    src = rng.integers(0, torus.node_count, size=256)
    dst = rng.integers(0, torus.node_count, size=256)
    delta = DeltaBackend(torus).pairwise(src, dst)
    assert delta.tolist() == [
        torus.distance(a, b) for a, b in zip(src.tolist(), dst.tolist())
    ]


@pytest.mark.parametrize("radix,dimensions", [(4, 2), (100, 2)])
@pytest.mark.parametrize("bad", [-1, "N"])
def test_bad_node_ids_raise_topology_error(radix, dimensions, bad):
    torus = Torus(radix=radix, dimensions=dimensions)
    node = torus.node_count if bad == "N" else bad
    for backend in (DeltaBackend(torus), distance_backend(torus)):
        with pytest.raises(TopologyError, match="^sources contain"):
            backend.pairwise([0, node], [1, 0])
        with pytest.raises(TopologyError, match="^destinations contain"):
            backend.pairwise([0], [[1], [node]])
    # Empty id arrays have nothing to range-check.
    assert DeltaBackend(torus).pairwise([], []).shape == (0,)


class TestTrajectoryEquality:
    """Fixed-seed anneals match the loop reference, and the delta
    backend's evaluation of each result equals the compiled kernel's
    reported distance."""

    @pytest.mark.parametrize("radix,dimensions", [(8, 2), (4, 3), (16, 2)])
    def test_anneal_trajectory(self, radix, dimensions):
        torus = Torus(radix=radix, dimensions=dimensions)
        graph = torus_neighbor_graph(radix, dimensions)
        start = random_mapping(torus.node_count, seed=11)
        fast = anneal_mapping(graph, torus, start, steps=800, seed=11)
        slow = reference_anneal_mapping(graph, torus, start, steps=800, seed=11)
        assert fast == slow
        assert average_distance(graph, fast.mapping, torus) == fast.distance
        assert average_distance(graph, start, torus) == fast.initial_distance

    def test_chain_trajectories(self):
        torus = Torus(radix=8, dimensions=2)
        graph = torus_neighbor_graph(8, 2)
        start = random_mapping(torus.node_count, seed=5)
        search = anneal_chains(graph, torus, start, chains=3, steps=400, seed=5)
        for result, distance in zip(search.results, search.distances):
            assert average_distance(graph, result.mapping, torus) == distance
