"""Loop-based reference implementations of the locality kernels.

The vectorized evaluation (distance-table gathers in
:mod:`repro.mapping.evaluate`) and the compiled swap search behind the
optimizers (:mod:`repro.mapping.engine`: whole chains and climbs in C,
drawing from a handoff of the ``random.Random`` state; used by
:mod:`repro.mapping.optimize`, :mod:`repro.mapping.anneal` and
:mod:`repro.mapping.chains`) promise *bit-identical* results to the
original per-edge Python loops for any graph with integer edge weights —
which covers every built-in communication graph.  This module keeps
those loops alive in two roles:

* the executable specification: the property tests pin the fast paths
  against them seed for seed, and ``benchmarks/bench_mapping.py``
  measures the speedup against them;
* the fallback: when the compiled swap kernel cannot load (no cffi, no
  C compiler), ``optimize_mapping``, ``anneal_mapping`` and
  ``anneal_chains`` return these loops' results instead, loudly (see
  :func:`repro.mapping.engine.kernel_available`).

Nothing here is exported through the package API.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

from repro.mapping.anneal import AnnealResult
from repro.mapping.base import Mapping
from repro.mapping.optimize import OptimizationResult
from repro.topology.graphs import CommunicationGraph
from repro.topology.torus import Torus

__all__ = [
    "reference_average_distance",
    "reference_distance_histogram",
    "reference_anneal_mapping",
    "reference_optimize_mapping",
]


def reference_average_distance(
    graph: CommunicationGraph, mapping: Mapping, torus: Torus
) -> float:
    """Per-edge loop over ``torus.distance`` — the original ``d`` kernel."""
    total = 0.0
    weight_sum = 0.0
    for src, dst, weight in graph.edges():
        hops = torus.distance(mapping.processor_of(src), mapping.processor_of(dst))
        total += weight * hops
        weight_sum += weight
    return total / weight_sum


def reference_distance_histogram(
    graph: CommunicationGraph, mapping: Mapping, torus: Torus
) -> Dict[int, float]:
    """Per-edge loop building the weight-at-distance histogram."""
    histogram: Dict[int, float] = {}
    for src, dst, weight in graph.edges():
        hops = torus.distance(mapping.processor_of(src), mapping.processor_of(dst))
        histogram[hops] = histogram.get(hops, 0.0) + weight
    return histogram


def _adjacency(graph: CommunicationGraph) -> List[List[Tuple[int, float]]]:
    adjacency: List[List[Tuple[int, float]]] = [[] for _ in range(graph.threads)]
    for src, dst, weight in graph.edges():
        adjacency[src].append((dst, weight))
        adjacency[dst].append((src, weight))
    return adjacency


def reference_anneal_mapping(
    graph: CommunicationGraph,
    torus: Torus,
    initial: Mapping,
    steps: int = 5000,
    seed: int = 0,
    initial_temperature: float = 2.0,
    cooling: float = 0.999,
) -> AnnealResult:
    """The original annealer: ``torus.distance`` per neighbor per swap.

    Draw order, cooling schedule (one decay per drawn step, including
    skipped same-thread draws), and accept rule match
    :func:`repro.mapping.anneal.anneal_mapping` exactly; move counting
    follows the fixed semantics (``attempted_moves`` counts real
    attempts, ``skipped_moves`` the discarded same-thread draws).
    """
    adjacency = _adjacency(graph)
    total_weight = graph.total_weight
    assignment = list(initial.assignment)
    generator = random.Random(seed)

    def local_cost(thread: int, other: int) -> float:
        here = assignment[thread]
        cost = 0.0
        for neighbor, weight in adjacency[thread]:
            if neighbor == other:
                continue
            cost += weight * torus.distance(here, assignment[neighbor])
        return cost

    current_sum = 0.0
    for src, dst, weight in graph.edges():
        current_sum += weight * torus.distance(assignment[src], assignment[dst])
    best_sum = current_sum
    best_assignment = tuple(assignment)

    temperature = initial_temperature
    accepted = 0
    attempted = 0
    threads = graph.threads
    for _ in range(steps):
        temperature *= cooling
        thread_a = generator.randrange(threads)
        thread_b = generator.randrange(threads)
        if thread_a == thread_b:
            continue
        attempted += 1
        before = local_cost(thread_a, thread_b) + local_cost(thread_b, thread_a)
        assignment[thread_a], assignment[thread_b] = (
            assignment[thread_b],
            assignment[thread_a],
        )
        after = local_cost(thread_a, thread_b) + local_cost(thread_b, thread_a)
        delta = after - before
        accept = delta < 0 or (
            temperature > 1e-12
            and generator.random() < math.exp(-delta / temperature)
        )
        if accept:
            accepted += 1
            current_sum += delta
            if current_sum < best_sum:
                best_sum = current_sum
                best_assignment = tuple(assignment)
        else:
            assignment[thread_a], assignment[thread_b] = (
                assignment[thread_b],
                assignment[thread_a],
            )

    final = Mapping(assignment=best_assignment, processors=initial.processors)
    return AnnealResult(
        mapping=final,
        distance=best_sum / total_weight,
        initial_distance=reference_average_distance(graph, initial, torus),
        best_distance=best_sum / total_weight,
        accepted_moves=accepted,
        attempted_moves=attempted,
        skipped_moves=steps - attempted,
    )


def reference_optimize_mapping(
    graph: CommunicationGraph,
    torus: Torus,
    initial: Mapping,
    steps: int = 2000,
    seed: int = 0,
    maximize: bool = False,
) -> OptimizationResult:
    """The original hill climber, loop-based like the annealer above."""
    adjacency = _adjacency(graph)
    total_weight = graph.total_weight
    assignment = list(initial.assignment)
    generator = random.Random(seed)

    def local_cost(thread: int, other: int) -> float:
        here = assignment[thread]
        cost = 0.0
        for neighbor, weight in adjacency[thread]:
            if neighbor == other:
                continue
            cost += weight * torus.distance(here, assignment[neighbor])
        return cost

    current_sum = 0.0
    for src, dst, weight in graph.edges():
        current_sum += weight * torus.distance(assignment[src], assignment[dst])

    accepted = 0
    threads = graph.threads
    for _ in range(steps):
        thread_a = generator.randrange(threads)
        thread_b = generator.randrange(threads)
        if thread_a == thread_b:
            continue
        before = local_cost(thread_a, thread_b) + local_cost(thread_b, thread_a)
        assignment[thread_a], assignment[thread_b] = (
            assignment[thread_b],
            assignment[thread_a],
        )
        after = local_cost(thread_a, thread_b) + local_cost(thread_b, thread_a)
        delta = after - before
        improved = delta > 0 if maximize else delta < 0
        if improved:
            accepted += 1
            current_sum += delta
        else:
            assignment[thread_a], assignment[thread_b] = (
                assignment[thread_b],
                assignment[thread_a],
            )

    final = Mapping(assignment=tuple(assignment), processors=initial.processors)
    return OptimizationResult(
        mapping=final,
        distance=current_sum / total_weight,
        initial_distance=reference_average_distance(graph, initial, torus),
        accepted_swaps=accepted,
        attempted_swaps=steps,
    )
