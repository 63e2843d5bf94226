"""Tests for multi-chain (restart) annealing."""

import sys

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
        # The serial path (one engine for every chain) must be
        # bit-identical, chain for chain, to independent anneal_mapping
        # runs seeded seed + i.
        search = anneal_chains(
            graph, torus, start, chains=3, steps=1200, seed=11
        )
        for index, result in enumerate(search.results):
            standalone = anneal_mapping(
                graph, torus, start, steps=1200, seed=11 + index
            )
            assert result == standalone

    def test_thread_count_does_not_change_results(self, monkeypatch):
        # Each thread takes its own swap engine; the chains must be
        # bit-identical at one thread, two, and more than the chains.
        # Chains long enough to overlap make a shared engine diverge.
        from repro.mapping import anneal

        torus = Torus(radix=16, dimensions=2)
        graph = torus_neighbor_graph(16, 2)
        start = random_mapping(256, seed=3)
        runs = {}
        interval = sys.getswitchinterval()
        try:
            for count in (1, 2, 8):
                monkeypatch.setattr(anneal, "thread_count", lambda: count)
                # Switch as often as the interpreter allows past one thread.
                sys.setswitchinterval(1e-6 if count > 1 else interval)
                runs[count] = anneal_chains(
                    graph, torus, start, chains=4, steps=50_000, seed=5
                )
        finally:
            sys.setswitchinterval(interval)
        assert runs[2] == runs[1] and runs[8] == runs[1]

    def test_deterministic(self, torus, graph, start):
        a = anneal_chains(graph, torus, start, chains=2, steps=500, seed=9)
        b = anneal_chains(graph, torus, start, chains=2, steps=500, seed=9)
        assert a == b

    def test_one_chain_opens_no_thread_pool(self, monkeypatch, torus, graph, start):
        # anneal_mapping (one chain) runs on the calling thread.
        from repro.mapping import anneal

        def no_pool(*args, **kwargs):
            raise AssertionError("one chain must not open a thread pool")

        monkeypatch.setattr(anneal, "thread_count", lambda: 4)
        monkeypatch.setattr(anneal, "ThreadPoolExecutor", no_pool)
        result = anneal_mapping(graph, torus, start, steps=300, seed=2)
        assert result.attempted_moves + result.skipped_moves == 300


class TestReferenceParity:
    """Regular and irregular graphs against the loop-based specification."""

    @pytest.mark.parametrize("pattern", ["torus-neighbor", "star"])
    def test_chains_and_climber_match_reference(self, torus, graph, start, pattern):
        from repro.mapping.optimize import optimize_mapping
        from repro.mapping.reference import (
            reference_anneal_mapping,
            reference_optimize_mapping,
        )

        # The torus-neighbor graph is regular; the star's hub row holds
        # every other thread.
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
