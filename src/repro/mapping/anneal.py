"""Simulated-annealing mapping optimization.

The hill climber in :mod:`repro.mapping.optimize` stops at the first
local optimum; annealing escapes shallow ones by accepting worsening
swaps with probability ``exp(-delta / T)`` under a geometric cooling
schedule.  Deterministic for a given seed, like everything else in the
mapping package.

One loop, :func:`anneal_lockstep`, anneals any number of chains in
lockstep: :func:`anneal_mapping` runs it with one chain and
:func:`repro.mapping.chains.anneal_chains` with ``R``.  Each step's
swaps, one per chain, are priced in one call to
:meth:`repro.mapping.engine.SwapEngine.swap_delta` (one distance-backend
gather over every lane).  The best state is journaled, not copied:
accepted swaps are logged, each new best records the log length, and
the swaps after the last best are undone at the end.  For integer edge
weights — every built-in graph — accept/reject decisions, the best
assignment, and all counters are bit-identical to the loop-based
reference implementation (:mod:`repro.mapping.reference`), which the
property tests enforce seed for seed.

Cooling semantics: the temperature decays once per *drawn* step, so the
schedule always spans exactly ``steps`` decays — including on draws
where both threads coincide and no swap is attempted.  Those skipped
draws are reported separately (``skipped_moves``) and excluded from
``attempted_moves``, which counts real swap attempts only.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro import obs
from repro.errors import MappingError
from repro.mapping.base import Mapping
from repro.mapping.engine import SwapEngine, check_sizes
from repro.topology.graphs import CommunicationGraph
from repro.topology.torus import Torus

__all__ = ["AnnealResult", "anneal_mapping"]


@dataclass(frozen=True)
class AnnealResult:
    """Outcome of an annealing run.

    ``attempted_moves`` counts real swap attempts; draws that picked the
    same thread twice are tallied in ``skipped_moves`` instead (the two
    always sum to the requested ``steps``).  Temperature decays on every
    drawn step, skipped or not — see the module docstring.
    """

    mapping: Mapping
    distance: float
    initial_distance: float
    best_distance: float
    accepted_moves: int
    attempted_moves: int
    skipped_moves: int = 0


def _check_schedule(initial_temperature: float, cooling: float) -> None:
    if not 0.0 < cooling < 1.0:
        raise MappingError(f"cooling must lie in (0, 1), got {cooling!r}")
    if not initial_temperature > 0:
        raise MappingError(
            f"initial_temperature must be positive, got {initial_temperature!r}"
        )


def anneal_mapping(
    graph: CommunicationGraph,
    torus: Torus,
    initial: Mapping,
    steps: int = 5000,
    seed: int = 0,
    initial_temperature: float = 2.0,
    cooling: float = 0.999,
) -> AnnealResult:
    """Anneal pairwise swaps to minimize average communication distance.

    Parameters
    ----------
    initial_temperature:
        Starting temperature in units of *weighted hop-sum* delta; around
        the magnitude of a typical single-swap delta works well.
    cooling:
        Geometric decay applied per drawn step; must lie in (0, 1).

    Returns the best mapping encountered (not merely the final state).
    """
    check_sizes(graph, torus, initial, steps)
    _check_schedule(initial_temperature, cooling)
    if graph.total_weight == 0.0:
        raise MappingError("communication graph has no edges")

    with obs.span(
        "mapping.anneal", steps=steps, threads=graph.threads, seed=seed
    ):
        results = anneal_lockstep(
            SwapEngine(graph, torus),
            initial,
            (seed,),
            steps,
            initial_temperature,
            cooling,
        )
    count_moves(results)
    return results[0]


def anneal_lockstep(
    engine: SwapEngine,
    initial: Mapping,
    seeds: Tuple[int, ...],
    steps: int,
    initial_temperature: float,
    cooling: float,
) -> Tuple[AnnealResult, ...]:
    """Anneal one chain per seed, all advancing in lockstep.

    Each step draws every chain's swap from that chain's private random
    stream and prices all of them in one :meth:`SwapEngine.swap_delta`
    call, so chain ``i`` is bit-identical to a run with ``seeds[i]``
    alone.  Accepted swaps are journaled; instead of copying a chain's
    position at each new best, the journal length is recorded, and the
    swaps after the last best are undone at the end.
    """
    chains = len(seeds)
    threads = engine.graph.threads
    generators = [random.Random(seed) for seed in seeds]
    start = np.fromiter(initial.assignment, dtype=np.intp, count=threads)
    start_sum, initial_distance = engine.objective(start)

    position = np.tile(start, (chains, 1))
    current_sum = [start_sum] * chains
    best_sum = [start_sum] * chains
    journals = [[] for _ in range(chains)]
    best_length = [0] * chains
    accepted = [0] * chains
    attempted = [0] * chains

    temperature = initial_temperature
    for _ in range(steps):
        temperature *= cooling
        lanes = []
        for chain, generator in enumerate(generators):
            thread_a = generator.randrange(threads)
            thread_b = generator.randrange(threads)
            if thread_a == thread_b:
                continue
            attempted[chain] += 1
            lanes.append((chain, thread_a, thread_b))
        if not lanes:
            continue
        rows, a_ids, b_ids = zip(*lanes)
        deltas = engine.swap_delta(position, a_ids, b_ids, rows).tolist()
        draw_probability = temperature > 1e-12
        for (chain, thread_a, thread_b), delta in zip(lanes, deltas):
            accept = delta < 0 or (
                draw_probability
                and generators[chain].random() < math.exp(-delta / temperature)
            )
            if not accept:
                continue
            row = position[chain]
            row[thread_a], row[thread_b] = row[thread_b], row[thread_a]
            journal = journals[chain]
            journal.append((thread_a, thread_b))
            accepted[chain] += 1
            current_sum[chain] += delta
            if current_sum[chain] < best_sum[chain]:
                best_sum[chain] = current_sum[chain]
                best_length[chain] = len(journal)

    results = []
    for chain in range(chains):
        row = position[chain]
        for thread_a, thread_b in reversed(journals[chain][best_length[chain]:]):
            row[thread_a], row[thread_b] = row[thread_b], row[thread_a]
        distance = best_sum[chain] / engine.total_weight
        results.append(
            AnnealResult(
                mapping=Mapping(
                    assignment=tuple(row.tolist()),
                    processors=initial.processors,
                ),
                distance=distance,
                initial_distance=initial_distance,
                best_distance=distance,
                accepted_moves=accepted[chain],
                attempted_moves=attempted[chain],
                skipped_moves=steps - attempted[chain],
            )
        )
    return tuple(results)


def count_moves(results: Tuple[AnnealResult, ...]) -> None:
    """Book the chains' move counts to the obs registry, once each."""
    if not obs.is_enabled():
        return
    obs.REGISTRY.counter(
        "anneal.attempted_moves", help="annealing swap attempts"
    ).inc(sum(result.attempted_moves for result in results))
    obs.REGISTRY.counter(
        "anneal.skipped_moves", help="same-thread draws discarded"
    ).inc(sum(result.skipped_moves for result in results))
    obs.REGISTRY.counter(
        "anneal.accepted_moves", help="annealing swaps accepted"
    ).inc(sum(result.accepted_moves for result in results))
