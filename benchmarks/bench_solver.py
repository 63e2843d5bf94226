"""Microbenchmarks: combined-model solver throughput and consistency.

Not a paper artifact, but the solver sits inside every Section 4 sweep;
these benchmarks track its cost and double-check the closed-form and
numeric paths agree at speed.  The headline sweep benchmarks go through
:func:`repro.core.solve_batch` (the vectorized path every sweep in
``core/sweeps.py`` now uses); the scalar bisection is benchmarked
separately as the reference it remains.
"""

import numpy as np
import pytest

from repro.core import (
    NodeModel,
    TorusNetworkModel,
    solve,
    solve_batch,
    solve_quadratic,
)


@pytest.fixture(scope="module")
def models():
    node = NodeModel(sensitivity=3.26, intercept=90.0)
    extended = TorusNetworkModel(dimensions=2, message_size=12.0)
    base = extended.without_extensions()
    return node, extended, base


def test_bisection_solver_throughput(benchmark, models):
    """The distance sweep on the batched bisection path."""
    node, extended, _ = models
    distances = np.arange(2, 102, dtype=float)

    def solve_sweep():
        return solve_batch(node, extended, distances)

    batch = benchmark(solve_sweep)
    points = [batch.point(i) for i in range(len(distances))]
    assert len(points) == 100
    assert all(0 < p.utilization < 1 for p in points)


def test_scalar_bisection_reference(benchmark, models):
    """The same sweep through the scalar solver (reference path)."""
    node, extended, _ = models

    def solve_sweep():
        return [solve(node, extended, d) for d in range(2, 102)]

    points = benchmark(solve_sweep)
    assert len(points) == 100
    assert all(0 < p.utilization < 1 for p in points)


def test_quadratic_solver_throughput(benchmark, models):
    node, _, base = models

    def solve_sweep():
        return [solve_quadratic(node, base, float(d)) for d in range(3, 103)]

    points = benchmark(solve_sweep)
    assert len(points) == 100


def test_batch_sweep_with_per_point_parameters(benchmark, models):
    """Sweep where sensitivity and intercept vary per point (the shape
    ``sweep_network_slowdowns`` produces)."""
    node, extended, _ = models
    count = 100
    distances = np.linspace(2.0, 8.0, count)
    sensitivity = np.linspace(1.5, 6.0, count)
    intercept = np.linspace(40.0, 140.0, count)

    def solve_sweep():
        return solve_batch(
            node,
            extended,
            distances,
            sensitivity=sensitivity,
            intercept=intercept,
        )

    batch = benchmark(solve_sweep)
    assert batch.transaction_rate.shape == (count,)
    assert np.all(batch.transaction_rate > 0)


def test_solvers_agree(benchmark, models):
    node, _, base = models

    def compare():
        worst = 0.0
        for d in range(3, 53):
            numeric = solve(node, base, float(d))
            closed = solve_quadratic(node, base, float(d))
            error = abs(numeric.message_rate - closed.message_rate)
            worst = max(worst, error / closed.message_rate)
        return worst

    worst = benchmark(compare)
    assert worst < 1e-7
