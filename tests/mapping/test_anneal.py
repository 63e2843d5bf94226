"""Tests for simulated-annealing mapping optimization."""

import pytest

from repro.errors import MappingError
from repro.mapping.anneal import anneal_mapping
from repro.mapping.chains import anneal_chains
from repro.mapping.evaluate import average_distance
from repro.mapping.optimize import minimize_distance
from repro.mapping.strategies import identity_mapping, random_mapping
from repro.topology.graphs import torus_neighbor_graph
from repro.topology.torus import Torus


@pytest.fixture
def torus():
    return Torus(radix=4, dimensions=2)


@pytest.fixture
def graph():
    return torus_neighbor_graph(4, 2)


class TestAnnealing:
    def test_improves_random_start(self, torus, graph):
        result = anneal_mapping(
            graph, torus, random_mapping(16, seed=7), steps=4000, seed=1
        )
        assert result.distance < result.initial_distance

    def test_reported_distance_matches_mapping(self, torus, graph):
        result = anneal_mapping(
            graph, torus, random_mapping(16, seed=7), steps=2000, seed=1
        )
        assert result.distance == pytest.approx(
            average_distance(graph, result.mapping, torus)
        )

    def test_returns_best_not_final(self, torus, graph):
        # A hot schedule accepts nearly every move, so the walk keeps
        # worsening long after its best state (from the identity start
        # the best is the start itself).  The returned mapping must be
        # the best one: re-evaluating it gives best_distance exactly.
        hot = dict(steps=2000, initial_temperature=50.0, cooling=0.9999)
        for start in (identity_mapping(16), random_mapping(16, seed=7)):
            search = anneal_chains(graph, torus, start, chains=3, seed=1, **hot)
            result = search.results[0]
            assert result.accepted_moves > 0.9 * result.attempted_moves
            for chain in search.results:
                assert average_distance(graph, chain.mapping, torus) == chain.best_distance

    def test_chain_moves_are_counted_once(self, torus, graph):
        from repro import obs

        names = ("anneal.attempted_moves", "anneal.accepted_moves")

        def counts():
            return [getattr(obs.REGISTRY.get(name), "value", 0) for name in names]

        enabled = obs.is_enabled()
        obs.enable()
        try:
            before = counts()
            search = anneal_chains(
                graph, torus, random_mapping(16, seed=7), chains=3, steps=500, seed=1
            )
            after = counts()
        finally:
            if not enabled:
                obs._STATE.enabled = False
                obs.reset()
        assert after[0] - before[0] == sum(r.attempted_moves for r in search.results)
        assert after[1] - before[1] == sum(r.accepted_moves for r in search.results)

    def test_deterministic(self, torus, graph):
        a = anneal_mapping(
            graph, torus, random_mapping(16, seed=7), steps=1500, seed=42
        )
        b = anneal_mapping(
            graph, torus, random_mapping(16, seed=7), steps=1500, seed=42
        )
        assert a.mapping == b.mapping

    def test_at_least_as_good_as_hill_climbing_on_average(self, torus, graph):
        # Same budget, several seeds: annealing should not lose overall.
        anneal_total = 0.0
        climb_total = 0.0
        for seed in range(4):
            start = random_mapping(16, seed=seed)
            anneal_total += anneal_mapping(
                graph, torus, start, steps=4000, seed=seed
            ).distance
            climb_total += minimize_distance(
                graph, torus, start, steps=4000, seed=seed
            ).distance
        assert anneal_total <= climb_total + 0.4

    def test_result_is_bijective(self, torus, graph):
        result = anneal_mapping(
            graph, torus, random_mapping(16, seed=7), steps=500, seed=1
        )
        assert result.mapping.is_bijective

    @pytest.mark.parametrize("kwargs", [
        {"steps": -1},
        {"cooling": 1.0},
        {"cooling": 0.0},
        {"initial_temperature": 0.0},
    ])
    def test_rejects_bad_parameters(self, torus, graph, kwargs):
        with pytest.raises(MappingError):
            anneal_chains(
                graph, torus, identity_mapping(16), seed=1, **kwargs
            )

    def test_rejects_mismatched_sizes(self, torus, graph):
        with pytest.raises(MappingError):
            anneal_mapping(graph, torus, identity_mapping(8), steps=10)


class TestMoveCounting:
    """Regression: attempted_moves used to report the raw step count.

    Same-thread draws never attempt a swap; they are now tallied in
    ``skipped_moves``, with ``attempted + skipped == steps`` and the
    cooling schedule still decaying once per drawn step (documented
    behavior, so the temperature trajectory is unchanged).
    """

    def test_attempted_plus_skipped_equals_steps(self, torus, graph):
        result = anneal_mapping(
            graph, torus, random_mapping(16, seed=7), steps=3000, seed=1
        )
        assert result.attempted_moves + result.skipped_moves == 3000
        # On 16 threads 1/16 of draws collide; with 3000 steps both
        # counters are essentially certain to be nonzero.
        assert result.skipped_moves > 0
        assert result.attempted_moves < 3000
        assert result.accepted_moves <= result.attempted_moves

    def test_single_thread_skips_every_step(self):
        # Degenerate machine: both draws always collide, so nothing is
        # ever attempted — previously this reported 50 "attempts".
        from repro.topology.graphs import ring_graph

        torus = Torus(radix=2, dimensions=1)
        graph = ring_graph(2)
        result = anneal_mapping(
            graph, torus, identity_mapping(2), steps=50, seed=0
        )
        assert result.attempted_moves + result.skipped_moves == 50
        assert result.accepted_moves <= result.attempted_moves


class TestReferenceParity:
    """The vectorized annealer against the loop-based specification."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bit_identical_to_reference(self, torus, graph, seed):
        from repro.mapping.reference import reference_anneal_mapping

        start = random_mapping(16, seed=seed + 20)
        fast = anneal_mapping(graph, torus, start, steps=1500, seed=seed)
        slow = reference_anneal_mapping(
            graph, torus, start, steps=1500, seed=seed
        )
        assert fast == slow

    def test_parity_on_irregular_pattern(self, torus):
        from repro.mapping.reference import reference_anneal_mapping
        from repro.topology.graphs import star_graph

        start = random_mapping(16, seed=8)
        graph = star_graph(16)
        fast = anneal_mapping(graph, torus, start, steps=800, seed=5)
        slow = reference_anneal_mapping(graph, torus, start, steps=800, seed=5)
        assert fast == slow

    def test_hill_climber_matches_reference(self, torus, graph):
        from repro.mapping.optimize import optimize_mapping
        from repro.mapping.reference import reference_optimize_mapping

        start = random_mapping(16, seed=9)
        for maximize in (False, True):
            fast = optimize_mapping(
                graph, torus, start, steps=1000, seed=4, maximize=maximize
            )
            slow = reference_optimize_mapping(
                graph, torus, start, steps=1000, seed=4, maximize=maximize
            )
            assert fast == slow
