"""Local-search mapping optimization.

Good thread placement is itself an optimization problem; the paper sweeps
its validation experiments across mappings ranging from ideal (one hop)
to adversarial (over six hops average on a 64-node machine).  This module
provides a seeded hill climber over pairwise swaps that can push a
mapping's average communication distance in either direction:

* ``minimize`` — approximate the "good mapping" a locality-aware runtime
  would compute for an arbitrary communication graph;
* ``maximize`` — construct the high-distance mappings the validation
  suite needs (the paper's worst mappings average just over six hops).

The climber is deterministic given its seed: swap candidates come from a
:class:`random.Random` stream and a swap is kept only if it strictly
improves the objective, so results are reproducible across runs.  Each
swap is priced by :meth:`repro.mapping.engine.SwapEngine.swap_delta`,
the same pricer the annealers use, with one lane; for integer edge
weights the accepted swaps and final mapping are bit-identical to the
loop-based reference in :mod:`repro.mapping.reference`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.errors import MappingError
from repro.mapping.base import Mapping
from repro.mapping.engine import SwapEngine, check_sizes
from repro.topology.graphs import CommunicationGraph
from repro.topology.torus import Torus

__all__ = ["OptimizationResult", "optimize_mapping", "minimize_distance", "maximize_distance"]


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a hill-climbing run."""

    mapping: Mapping
    distance: float
    initial_distance: float
    accepted_swaps: int
    attempted_swaps: int


def optimize_mapping(
    graph: CommunicationGraph,
    torus: Torus,
    initial: Mapping,
    steps: int = 2000,
    seed: int = 0,
    maximize: bool = False,
) -> OptimizationResult:
    """Hill-climb pairwise swaps on ``initial`` for ``steps`` attempts.

    Only strict improvements are kept; the objective is the weighted
    average communication distance, minimized by default.  Works on
    bijective mappings (swapping is only well-defined there).
    """
    check_sizes(graph, torus, initial, steps)
    if graph.total_weight == 0.0:
        raise MappingError("communication graph has no edges")

    engine = SwapEngine(graph, torus)
    threads = graph.threads
    position = np.fromiter(initial.assignment, dtype=np.intp, count=threads)
    generator = random.Random(seed)
    current_sum, initial_distance = engine.objective(position)

    accepted = 0
    for _ in range(steps):
        thread_a = generator.randrange(threads)
        thread_b = generator.randrange(threads)
        if thread_a == thread_b:
            continue
        delta = engine.swap_delta(position, thread_a, thread_b)
        improved = delta > 0 if maximize else delta < 0
        if improved:
            accepted += 1
            current_sum += delta
            position[thread_a], position[thread_b] = (
                position[thread_b],
                position[thread_a],
            )

    final = Mapping(
        assignment=tuple(position.tolist()), processors=initial.processors
    )
    return OptimizationResult(
        mapping=final,
        distance=float(current_sum) / engine.total_weight,
        initial_distance=initial_distance,
        accepted_swaps=accepted,
        attempted_swaps=steps,
    )


def minimize_distance(
    graph: CommunicationGraph,
    torus: Torus,
    initial: Mapping,
    steps: int = 2000,
    seed: int = 0,
) -> OptimizationResult:
    """Hill-climb toward a locality-exploiting mapping."""
    return optimize_mapping(graph, torus, initial, steps=steps, seed=seed, maximize=False)


def maximize_distance(
    graph: CommunicationGraph,
    torus: Torus,
    initial: Mapping,
    steps: int = 2000,
    seed: int = 0,
) -> OptimizationResult:
    """Hill-climb toward an adversarial, locality-destroying mapping."""
    return optimize_mapping(graph, torus, initial, steps=steps, seed=seed, maximize=True)
