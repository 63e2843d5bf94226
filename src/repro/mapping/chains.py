"""Multi-chain (restart) annealing.

Annealing is cheap insurance against bad luck: one chain can freeze in a
poor basin, but the best of ``R`` independently seeded chains rarely
does.  :func:`anneal_chains` runs ``R`` restart chains of
:func:`repro.mapping.anneal.anneal_mapping` — same graph, torus, initial
mapping, and schedule, chain ``i`` seeded ``seed + i`` — and returns all
of them plus the winner.

The chains run on threads in this process
(:func:`repro.mapping.anneal.run_chains`): up to
:func:`~repro.core.pool.thread_count` at once, each one call into the
compiled swap kernel that releases the GIL, each thread with a
:class:`~repro.mapping.engine.SwapEngine` of its own.  Each chain has
its own random stream, so under the default schedule chain ``i`` is
bit-identical to a standalone ``anneal_mapping(..., seed=seed + i)``
run, and the chain results — and
therefore the selected winner — are deterministic functions of
``(seed, chains)`` alone, at any thread count.  Without the kernel the
chains run one after another on the loop reference, loudly (one
``mapping.fallback`` count and a
:class:`~repro.mapping.engine.MappingFallbackWarning`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro import obs
from repro.errors import MappingError
from repro.mapping.anneal import (
    AnnealResult,
    _check_schedule,
    count_moves,
    run_chains,
)
from repro.mapping.base import Mapping
from repro.mapping.engine import check_sizes
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


def anneal_chains(
    graph: CommunicationGraph,
    torus: Torus,
    initial: Mapping,
    chains: int = 4,
    steps: int = 5000,
    seed: int = 0,
    initial_temperature: float = 2.0,
    cooling: float = 0.999,
) -> MultiChainResult:
    """Run ``chains`` independent annealing restarts and keep them all.

    Chain ``i`` is seeded ``seed + i``; under the default schedule it is
    bit-identical to a standalone ``anneal_mapping(..., seed=seed + i)``
    call.  Results do not depend on how many threads run the chains.
    """
    check_sizes(graph, torus, initial, steps)
    _check_schedule(initial_temperature, cooling)
    if chains < 1:
        raise MappingError(f"chains must be >= 1, got {chains!r}")
    if graph.total_weight == 0.0:
        raise MappingError("communication graph has no edges")

    seeds = tuple(seed + index for index in range(chains))
    with obs.span(
        "mapping.anneal_chains",
        chains=chains,
        steps=steps,
        threads=graph.threads,
        seed=seed,
    ):
        results = run_chains(
            graph, torus, initial, seeds, steps, initial_temperature, cooling
        )

    if obs.is_enabled():
        obs.REGISTRY.counter(
            "anneal.chains", help="annealing restart chains run"
        ).inc(chains)
    count_moves(results)

    return MultiChainResult(
        results=results,
        seeds=seeds,
        best_index=_select_best(results),
    )
