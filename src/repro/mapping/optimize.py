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
improves the objective, so results are reproducible across runs.  A
climb is one call into the compiled kernel the annealers use,
:meth:`repro.mapping.engine.SwapEngine.run` at temperature 0, drawing
from a handoff of ``random.Random(seed)``'s state; for integer edge
weights the accepted swaps and final mapping are bit-identical to the
loop-based reference in :mod:`repro.mapping.reference`, which is also
what runs (loudly) when the kernel cannot load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MappingError
from repro.mapping.base import Mapping
from repro.mapping.engine import SwapEngine, check_sizes, kernel_available
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

    if not kernel_available():
        from repro.mapping.reference import reference_optimize_mapping

        return reference_optimize_mapping(
            graph, torus, initial, steps, seed, maximize
        )

    engine = SwapEngine(graph, torus)
    position = np.array(initial.as_array())
    initial_distance, final_sum, accepted, _ = engine.run(
        position, seed, steps, maximize=maximize
    )
    return OptimizationResult(
        mapping=Mapping.from_array(position, initial.processors),
        distance=final_sum / engine.total_weight,
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
