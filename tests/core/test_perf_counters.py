"""Tests for the solver's ``perf.*`` registry counters and the memoized
solve cache."""

import numpy as np
import pytest

from repro.core import (
    NodeModel,
    TorusNetworkModel,
    clear_solve_cache,
    solve,
    solve_batch,
    solve_cached,
)
from repro.obs.metrics import REGISTRY

NAMES = ("solve_calls", "cache_hits", "cache_misses", "batch_solves", "batch_points")


def snapshot():
    return {name: REGISTRY.get(f"perf.{name}").value for name in NAMES}


def delta(before):
    now = snapshot()
    return {name: now[name] - before[name] for name in NAMES}


def reset():
    for name in NAMES:
        REGISTRY.get(f"perf.{name}").reset()


@pytest.fixture
def models():
    return (
        NodeModel(sensitivity=3.26, intercept=90.0),
        TorusNetworkModel(dimensions=2, message_size=12.0),
    )


@pytest.fixture(autouse=True)
def clean_state():
    clear_solve_cache()
    reset()
    yield
    clear_solve_cache()
    reset()


class TestCounters:
    def test_solve_increments_solve_calls(self, models):
        node, network = models
        before = snapshot()
        solve(node, network, 4.0)
        assert delta(before)["solve_calls"] == 1

    def test_batch_counts_invocations_and_points(self, models):
        node, network = models
        before = snapshot()
        solve_batch(node, network, np.array([2.0, 4.0, 8.0]))
        d = delta(before)
        assert d["batch_solves"] == 1
        assert d["batch_points"] == 3

    def test_reset_zeroes_everything(self, models):
        node, network = models
        solve(node, network, 4.0)
        REGISTRY.reset()
        assert all(v == 0 for v in snapshot().values())

    def test_delta_ignores_unrelated_activity_before_snapshot(self, models):
        node, network = models
        solve(node, network, 4.0)
        before = snapshot()
        solve(node, network, 8.0)
        assert delta(before)["solve_calls"] == 1


class TestSolveCache:
    def test_first_lookup_misses_then_hits(self, models):
        node, network = models
        before = snapshot()
        first = solve_cached(node, network, 4.0)
        second = solve_cached(node, network, 4.0)
        d = delta(before)
        assert d["cache_misses"] == 1
        assert d["cache_hits"] == 1
        assert first == second

    def test_cached_result_matches_scalar_solve(self, models):
        node, network = models
        cached = solve_cached(node, network, 6.0)
        direct = solve(node, network, 6.0)
        assert cached.message_rate == direct.message_rate
        assert cached.transaction_rate == direct.transaction_rate

    def test_distinct_parameters_are_distinct_entries(self, models):
        node, network = models
        before = snapshot()
        solve_cached(node, network, 4.0)
        solve_cached(node, network, 5.0)
        slower = NodeModel(
            sensitivity=node.sensitivity, intercept=node.intercept * 2
        )
        solve_cached(slower, network, 4.0)
        d = delta(before)
        assert d["cache_misses"] == 3
        assert d["cache_hits"] == 0

    def test_clear_cache_forces_re_solve(self, models):
        node, network = models
        solve_cached(node, network, 4.0)
        clear_solve_cache()
        before = snapshot()
        solve_cached(node, network, 4.0)
        assert delta(before)["cache_misses"] == 1
