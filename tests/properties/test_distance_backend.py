"""Parity suite for the delta-compressed distance engine.

The dense N x N table is the oracle: the delta backend (per-dimension
ring rows gathered over coordinate deltas) must reproduce it bit for
bit on every (k, n) in the paper's envelope — k in 1..9, n in 1..4,
including the even-radix half-way tie — and the annealer, whose
compiled swap kernel reads no backend, must walk the exact same
trajectory whatever the guard decides.  The guard
accessor itself is pinned: one place decides dense vs delta vs digit.
"""

import numpy as np
import pytest

import repro.topology.torus as torus_module
from repro.mapping.anneal import anneal_mapping
from repro.mapping.chains import anneal_chains
from repro.mapping.strategies import random_mapping
from repro.topology.graphs import torus_neighbor_graph
from repro.topology.torus import (
    DeltaBackend,
    DenseBackend,
    DigitBackend,
    Torus,
    distance_backend,
)

# The full (k, n) grid the issue pins: k in 1..9, n in 1..4.
GRID = [(k, n) for k in range(1, 10) for n in range(1, 5)]


@pytest.mark.parametrize("radix,dimensions", GRID)
def test_delta_matches_dense_bit_for_bit(radix, dimensions):
    torus = Torus(radix=radix, dimensions=dimensions)
    count = torus.node_count
    # Oracle: the dense table, built past the default guard if needed.
    table = torus.distance_table(max_nodes=count)
    delta = DeltaBackend(torus)
    if count <= 1024:
        nodes = np.arange(count, dtype=np.intp)
        got = delta.pairwise(nodes[:, None], nodes[None, :])
        assert np.array_equal(got, table.astype(np.int64))
    else:
        # Larger shapes: every destination against seeded source rows.
        rng = np.random.default_rng(radix * 100 + dimensions)
        sources = rng.integers(0, count, size=64)
        got = delta.pairwise(sources[:, None], np.arange(count)[None, :])
        assert np.array_equal(got, table[sources].astype(np.int64))


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


@pytest.mark.parametrize("radix,dimensions", [(3, 2), (7, 3), (9, 4)])
def test_delta_matches_digit_walk(radix, dimensions):
    torus = Torus(radix=radix, dimensions=dimensions)
    rng = np.random.default_rng(7)
    src = rng.integers(0, torus.node_count, size=256)
    dst = rng.integers(0, torus.node_count, size=256)
    delta = DeltaBackend(torus).pairwise(src, dst)
    assert np.array_equal(delta, torus.pairwise_distance(src, dst))


class TestBackendSelection:
    def test_dense_below_guard(self):
        backend = distance_backend(Torus(radix=8, dimensions=2))
        assert isinstance(backend, DenseBackend)
        assert backend.kind == "dense"
        assert backend.table is not None

    def test_delta_above_table_guard(self):
        backend = distance_backend(Torus(radix=100, dimensions=2))
        assert isinstance(backend, DeltaBackend)
        assert backend.kind == "delta"
        assert backend.table is None

    def test_digit_above_delta_guard(self, monkeypatch):
        monkeypatch.setattr(torus_module, "DELTA_BACKEND_MAX_NODES", 1)
        backend = distance_backend(Torus(radix=100, dimensions=2))
        assert isinstance(backend, DigitBackend)
        assert backend.kind == "digit"

    def test_guard_read_dynamically(self, monkeypatch):
        # The accessor must honor runtime changes to the table cap (the
        # historical fallback tests monkeypatch it mid-run).
        torus = Torus(radix=4, dimensions=2)
        assert isinstance(distance_backend(torus), DenseBackend)
        monkeypatch.setattr(torus_module, "DISTANCE_TABLE_MAX_NODES", 1)
        assert isinstance(distance_backend(torus), DeltaBackend)


class TestTrajectoryEquality:
    """Fixed-seed anneal runs must be identical dense vs delta."""

    @pytest.mark.parametrize("radix,dimensions", [(8, 2), (4, 3), (16, 2)])
    def test_anneal_trajectory(self, radix, dimensions, monkeypatch):
        torus = Torus(radix=radix, dimensions=dimensions)
        graph = torus_neighbor_graph(radix, dimensions)
        start = random_mapping(torus.node_count, seed=11)
        dense = anneal_mapping(graph, torus, start, steps=800, seed=11)
        monkeypatch.setattr(torus_module, "DISTANCE_TABLE_MAX_NODES", 1)
        delta = anneal_mapping(graph, torus, start, steps=800, seed=11)
        assert dense.mapping.assignment == delta.mapping.assignment
        assert dense.distance == delta.distance
        assert dense.best_distance == delta.best_distance
        assert dense.accepted_moves == delta.accepted_moves
        assert dense.attempted_moves == delta.attempted_moves

    def test_chain_trajectories(self, monkeypatch):
        torus = Torus(radix=8, dimensions=2)
        graph = torus_neighbor_graph(8, 2)
        start = random_mapping(torus.node_count, seed=5)
        dense = anneal_chains(graph, torus, start, chains=3, steps=400, seed=5)
        monkeypatch.setattr(torus_module, "DISTANCE_TABLE_MAX_NODES", 1)
        delta = anneal_chains(graph, torus, start, chains=3, steps=400, seed=5)
        assert list(dense.distances) == list(delta.distances)
        assert dense.best_index == delta.best_index
        assert dense.best.mapping.assignment == delta.best.mapping.assignment
