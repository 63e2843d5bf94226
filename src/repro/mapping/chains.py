"""Multi-chain (restart) annealing over a shared distance table.

Annealing is cheap insurance against bad luck: one chain can freeze in a
poor basin, but the best of ``R`` independently seeded chains rarely
does.  :func:`anneal_chains` runs ``R`` restart chains of
:func:`repro.mapping.anneal.anneal_mapping` — same graph, torus, initial
mapping, and schedule, chain ``i`` seeded ``seed + i`` — and returns all
of them plus the winner.

Two execution strategies, identical results:

* **batched** (default, ``jobs=1``) — all chains advance in lockstep and
  each step's swap deltas are priced for every chain at once with 2-D
  gathers over the shared distance table and a zero-padded adjacency
  matrix (:meth:`repro.mapping.engine.SwapEngine.padded_adjacency`).
  Per-chain random streams are private, so lockstep interleaving cannot
  perturb them: chain ``i`` is bit-identical to a standalone
  ``anneal_mapping(..., seed=seed + i)`` run.
* **process fan-out** (``jobs > 1``) — chains are distributed over
  worker processes (:func:`repro.core.pool.process_map`); the
  ``(graph, torus, initial)`` payload reaches each worker once, each
  task carries only its chain seed and schedule, and each worker builds
  its own distance table.  Falls back to the batched path (loudly:
  ``pool.fallback`` counter plus a
  :class:`~repro.core.pool.PoolFallbackWarning`) if no worker can start.

Either way the chain results — and therefore the selected winner — are
deterministic functions of ``(seed, chains)`` alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.core.pool import FALLBACK_ERRORS, note_fallback, process_map
from repro.errors import MappingError
from repro.mapping.anneal import AnnealResult, _check_schedule, anneal_mapping
from repro.mapping.base import Mapping
from repro.mapping.engine import SwapEngine, check_sizes
from repro.mapping.evaluate import average_distance
from repro.topology.graphs import CommunicationGraph
from repro.topology.torus import Torus

__all__ = ["MultiChainResult", "anneal_chains"]


@dataclass(frozen=True)
class MultiChainResult:
    """All restart chains of one multi-chain annealing run.

    ``results[i]`` is chain ``i``'s :class:`AnnealResult` (seeded
    ``seeds[i]``); ``best_index`` selects the lowest best-distance chain,
    ties resolved toward the lowest index, so selection is deterministic.
    """

    results: Tuple[AnnealResult, ...]
    seeds: Tuple[int, ...]
    best_index: int

    @property
    def best(self) -> AnnealResult:
        """The winning chain's result."""
        return self.results[self.best_index]

    @property
    def chains(self) -> int:
        return len(self.results)

    @property
    def distances(self) -> Tuple[float, ...]:
        """Best distance per chain, in chain order."""
        return tuple(result.best_distance for result in self.results)


def _select_best(results: Tuple[AnnealResult, ...]) -> int:
    best_index = 0
    for index, result in enumerate(results):
        if result.best_distance < results[best_index].best_distance:
            best_index = index
    return best_index


def _run_chain(payload, task) -> AnnealResult:
    """Worker task: one standalone chain against the shared problem."""
    graph, torus, initial = payload
    seed, steps, temperature, cooling = task
    return anneal_mapping(
        graph,
        torus,
        initial,
        steps=steps,
        seed=seed,
        initial_temperature=temperature,
        cooling=cooling,
    )


def _anneal_chains_batched(
    engine: SwapEngine,
    initial: Mapping,
    chains: int,
    steps: int,
    seeds: Tuple[int, ...],
    initial_temperature: float,
    cooling: float,
) -> Tuple[AnnealResult, ...]:
    """Lockstep chains with batched 2-D delta gathers."""
    threads = engine.graph.threads
    generators = [random.Random(seed) for seed in seeds]
    position = np.tile(
        np.array(initial.assignment, dtype=np.intp), (chains, 1)
    )
    start_sum = engine.weighted_hop_sum(position[0])
    current_sum = [start_sum] * chains
    best_sum = [start_sum] * chains
    best_position = [position[i].copy() for i in range(chains)]
    accepted = [0] * chains
    attempted = [0] * chains

    padded_nbr, padded_weight = engine.padded_adjacency()
    temperature = initial_temperature
    chain_ids = np.empty(chains, dtype=np.intp)
    a_ids = np.empty(chains, dtype=np.intp)
    b_ids = np.empty(chains, dtype=np.intp)

    for _ in range(steps):
        temperature *= cooling
        active = 0
        for chain, generator in enumerate(generators):
            thread_a = generator.randrange(threads)
            thread_b = generator.randrange(threads)
            if thread_a == thread_b:
                continue
            attempted[chain] += 1
            chain_ids[active] = chain
            a_ids[active] = thread_a
            b_ids[active] = thread_b
            active += 1
        if not active:
            continue
        rows = chain_ids[:active]
        a_arr = a_ids[:active]
        b_arr = b_ids[:active]

        nbr_a = padded_nbr[a_arr]
        nbr_b = padded_nbr[b_arr]
        weight_a = padded_weight[a_arr] * (nbr_a != b_arr[:, None])
        weight_b = padded_weight[b_arr] * (nbr_b != a_arr[:, None])
        pos_na = position[rows[:, None], nbr_a]
        pos_nb = position[rows[:, None], nbr_b]
        here_a = position[rows, a_arr][:, None]
        here_b = position[rows, b_arr][:, None]
        gain_a = engine.distances_2d(here_b, pos_na).astype(
            np.int64
        ) - engine.distances_2d(here_a, pos_na)
        gain_b = engine.distances_2d(here_a, pos_nb).astype(
            np.int64
        ) - engine.distances_2d(here_b, pos_nb)
        deltas = (weight_a * gain_a).sum(axis=1) + (weight_b * gain_b).sum(axis=1)

        draw_probability = temperature > 1e-12
        for lane in range(active):
            chain = rows[lane]
            delta = deltas[lane]
            generator = generators[chain]
            accept = delta < 0 or (
                draw_probability
                and generator.random() < math.exp(-delta / temperature)
            )
            if not accept:
                continue
            accepted[chain] += 1
            current_sum[chain] += delta
            thread_a = a_arr[lane]
            thread_b = b_arr[lane]
            position[chain, thread_a], position[chain, thread_b] = (
                position[chain, thread_b],
                position[chain, thread_a],
            )
            if current_sum[chain] < best_sum[chain]:
                best_sum[chain] = current_sum[chain]
                best_position[chain] = position[chain].copy()

    initial_distance = average_distance(
        engine.graph, initial, engine.torus
    )
    results = []
    for chain in range(chains):
        mapping = Mapping(
            assignment=tuple(int(p) for p in best_position[chain]),
            processors=initial.processors,
        )
        distance = float(best_sum[chain]) / engine.total_weight
        results.append(
            AnnealResult(
                mapping=mapping,
                distance=distance,
                initial_distance=initial_distance,
                best_distance=distance,
                accepted_moves=accepted[chain],
                attempted_moves=attempted[chain],
                skipped_moves=steps - attempted[chain],
            )
        )
    return tuple(results)


def anneal_chains(
    graph: CommunicationGraph,
    torus: Torus,
    initial: Mapping,
    chains: int = 4,
    steps: int = 5000,
    seed: int = 0,
    initial_temperature: float = 2.0,
    cooling: float = 0.999,
    jobs: int = 1,
) -> MultiChainResult:
    """Run ``chains`` independent annealing restarts and keep them all.

    Chain ``i`` is seeded ``seed + i`` and is bit-identical to a
    standalone ``anneal_mapping(..., seed=seed + i)`` call; results do
    not depend on ``jobs``.  With ``jobs > 1`` chains fan out over that
    many worker processes (one chain per task, the problem handed to
    each worker once); otherwise all chains advance in lockstep with
    their swap deltas priced in one batched gather per step over the
    shared distance table.
    """
    check_sizes(graph, torus, initial, steps)
    _check_schedule(initial_temperature, cooling)
    if chains < 1:
        raise MappingError(f"chains must be >= 1, got {chains!r}")
    if jobs < 1:
        raise MappingError(f"jobs must be >= 1, got {jobs!r}")
    if graph.total_weight == 0.0:
        raise MappingError("communication graph has no edges")

    seeds = tuple(seed + index for index in range(chains))
    results: Optional[Tuple[AnnealResult, ...]] = None
    with obs.span(
        "mapping.anneal_chains",
        chains=chains,
        steps=steps,
        threads=graph.threads,
        seed=seed,
        jobs=jobs,
    ):
        if jobs > 1:
            try:
                results = tuple(
                    process_map(
                        _run_chain,
                        (graph, torus, initial),
                        [
                            (s, steps, initial_temperature, cooling)
                            for s in seeds
                        ],
                        jobs,
                    )
                )
            except FALLBACK_ERRORS as error:
                note_fallback("mapping.chains", error)
        if results is None:
            engine = SwapEngine(graph, torus)
            results = _anneal_chains_batched(
                engine,
                initial,
                chains,
                steps,
                seeds,
                initial_temperature,
                cooling,
            )

    if obs.is_enabled():
        obs.REGISTRY.counter(
            "anneal.chains", help="annealing restart chains run"
        ).inc(chains)
        obs.REGISTRY.counter(
            "anneal.attempted_moves", help="annealing swap attempts"
        ).inc(sum(result.attempted_moves for result in results))
        obs.REGISTRY.counter(
            "anneal.accepted_moves", help="annealing swaps accepted"
        ).inc(sum(result.accepted_moves for result in results))

    return MultiChainResult(
        results=results,
        seeds=seeds,
        best_index=_select_best(results),
    )
