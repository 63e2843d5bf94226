"""Tests for the solver's ``perf.*`` registry counters."""

import numpy as np
import pytest

from repro.core import (
    NodeModel,
    TorusNetworkModel,
    solve,
    solve_batch,
)
from repro.obs.metrics import REGISTRY

NAMES = ("solve_calls", "batch_solves", "batch_points")


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
    reset()
    yield
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
