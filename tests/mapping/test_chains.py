"""Tests for multi-chain (restart) annealing."""

import pytest

from repro.errors import MappingError
from repro.mapping.anneal import anneal_mapping
from repro.mapping.chains import MultiChainResult, anneal_chains
from repro.mapping.strategies import identity_mapping, random_mapping
from repro.topology.graphs import star_graph, torus_neighbor_graph
from repro.topology.torus import Torus


@pytest.fixture
def torus():
    return Torus(radix=4, dimensions=2)


@pytest.fixture
def graph():
    return torus_neighbor_graph(4, 2)


@pytest.fixture
def start():
    return random_mapping(16, seed=3)


class TestChainParity:
    def test_each_chain_matches_standalone_anneal(self, torus, graph, start):
        # The batched lockstep path must be bit-identical, chain for
        # chain, to independent anneal_mapping runs seeded seed + i.
        search = anneal_chains(
            graph, torus, start, chains=3, steps=1200, seed=11
        )
        for index, result in enumerate(search.results):
            standalone = anneal_mapping(
                graph, torus, start, steps=1200, seed=11 + index
            )
            assert result == standalone

    def test_jobs_do_not_change_results(self, torus, graph, start):
        batched = anneal_chains(
            graph, torus, start, chains=3, steps=600, seed=5, jobs=1
        )
        pooled = anneal_chains(
            graph, torus, start, chains=3, steps=600, seed=5, jobs=2
        )
        assert batched.results == pooled.results
        assert batched.best_index == pooled.best_index

    def test_deterministic(self, torus, graph, start):
        a = anneal_chains(graph, torus, start, chains=2, steps=500, seed=9)
        b = anneal_chains(graph, torus, start, chains=2, steps=500, seed=9)
        assert a == b

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_workers_match_batched(
        self, method, monkeypatch, torus, graph, start
    ):
        # Each worker builds its own distance table; the chains must
        # still be bit-identical to the batched path.
        import multiprocessing

        from repro.core import pool

        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} on this platform")
        monkeypatch.setattr(
            pool, "_context", lambda: multiprocessing.get_context(method)
        )
        batched = anneal_chains(
            graph, torus, start, chains=2, steps=400, seed=5, jobs=1
        )
        pooled = anneal_chains(
            graph, torus, start, chains=2, steps=400, seed=5, jobs=2
        )
        assert batched.results == pooled.results
        assert batched.best_index == pooled.best_index


class TestReferenceParity:
    """Both adjacency layouts against the loop-based specification."""

    @pytest.mark.parametrize("pattern", ["torus-neighbor", "star"])
    def test_chains_and_climber_match_reference(self, torus, graph, start, pattern):
        from repro.mapping.optimize import optimize_mapping
        from repro.mapping.reference import (
            reference_anneal_mapping,
            reference_optimize_mapping,
        )

        # The torus-neighbor graph is regular (zero-copy row view); the
        # star is not (per-call CSR windows, padded to the hub's row).
        if pattern == "star":
            graph = star_graph(16)
        search = anneal_chains(graph, torus, start, chains=3, steps=800, seed=6)
        for index, result in enumerate(search.results):
            assert result == reference_anneal_mapping(
                graph, torus, start, steps=800, seed=6 + index
            )
        for maximize in (False, True):
            assert optimize_mapping(
                graph, torus, start, steps=800, seed=6, maximize=maximize
            ) == reference_optimize_mapping(
                graph, torus, start, steps=800, seed=6, maximize=maximize
            )


class TestSelection:
    def test_seeds_are_consecutive(self, torus, graph, start):
        search = anneal_chains(
            graph, torus, start, chains=4, steps=200, seed=30
        )
        assert search.seeds == (30, 31, 32, 33)
        assert search.chains == 4

    def test_best_is_the_minimum_distance_chain(self, torus, graph, start):
        search = anneal_chains(
            graph, torus, start, chains=4, steps=1500, seed=2
        )
        assert search.best.best_distance == min(search.distances)
        assert search.best is search.results[search.best_index]

    def test_ties_resolve_to_lowest_index(self):
        # A star graph is distance-invariant enough that short chains
        # often tie; selection must then prefer the earliest chain.
        from repro.mapping.chains import _select_best
        from repro.mapping.anneal import AnnealResult
        from repro.mapping.base import Mapping

        mapping = Mapping(assignment=(0, 1), processors=2)
        tied = AnnealResult(
            mapping=mapping,
            distance=1.0,
            initial_distance=1.0,
            best_distance=1.0,
            accepted_moves=0,
            attempted_moves=0,
        )
        assert _select_best((tied, tied, tied)) == 0

    def test_more_chains_never_worse(self, torus, graph, start):
        few = anneal_chains(graph, torus, start, chains=1, steps=800, seed=4)
        many = anneal_chains(graph, torus, start, chains=4, steps=800, seed=4)
        assert many.best.best_distance <= few.best.best_distance

    def test_improves_on_structured_pattern(self, torus, graph, start):
        search = anneal_chains(
            graph, torus, start, chains=2, steps=2500, seed=0
        )
        assert search.best.best_distance < search.best.initial_distance
        assert search.best.mapping.is_bijective


class TestValidation:
    def test_rejects_bad_chain_count(self, torus, graph, start):
        with pytest.raises(MappingError):
            anneal_chains(graph, torus, start, chains=0, steps=10)

    def test_rejects_bad_jobs(self, torus, graph, start):
        with pytest.raises(MappingError):
            anneal_chains(graph, torus, start, chains=2, steps=10, jobs=0)

    def test_rejects_mismatched_mapping(self, torus, graph):
        with pytest.raises(MappingError):
            anneal_chains(graph, torus, identity_mapping(8), steps=10)

    def test_rejects_bad_schedule(self, torus, graph, start):
        with pytest.raises(MappingError):
            anneal_chains(graph, torus, start, steps=10, cooling=1.5)

    def test_result_shape(self, torus, start):
        search = anneal_chains(
            star_graph(16), torus, start, chains=2, steps=100, seed=1
        )
        assert isinstance(search, MultiChainResult)
        assert len(search.results) == 2
        for result in search.results:
            assert result.attempted_moves + result.skipped_moves == 100
