"""Multi-chain (restart) annealing.

Annealing is cheap insurance against bad luck: one chain can freeze in a
poor basin, but the best of ``R`` independently seeded chains rarely
does.  :func:`anneal_chains` runs ``R`` restart chains of
:func:`repro.mapping.anneal.anneal_mapping` — same graph, torus, initial
mapping, and schedule, chain ``i`` seeded ``seed + i`` — and returns all
of them plus the winner.

Two execution strategies, identical results:

* **serial** (default, ``jobs=1``) — one compiled chain per seed
  (:func:`repro.mapping.anneal.run_chain`, run by
  :func:`repro.mapping.anneal.run_chains`) over one
  :class:`~repro.mapping.engine.SwapEngine` (the compiled swap kernel,
  bound once to the graph and torus).  Each chain has its own random
  stream, so chain ``i`` is bit-identical to a standalone
  ``anneal_mapping(..., seed=seed + i)`` run.  Without the kernel the
  chains run on the loop reference, loudly (one ``mapping.fallback``
  count and a :class:`~repro.mapping.engine.MappingFallbackWarning`).
* **process fan-out** (``jobs > 1``) — chains are distributed over
  worker processes (:func:`repro.core.pool.process_map`); the
  ``(graph, torus, initial)`` payload reaches each worker once and each
  task carries only its chain seed and schedule.  Falls back to the
  serial path (loudly: ``pool.fallback`` counter plus a
  :class:`~repro.core.pool.PoolFallbackWarning`) if no worker can start.

Either way the chain results — and therefore the selected winner — are
deterministic functions of ``(seed, chains)`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro import obs
from repro.core.pool import FALLBACK_ERRORS, note_fallback, process_map
from repro.errors import MappingError
from repro.mapping.anneal import (
    AnnealResult,
    _check_schedule,
    anneal_mapping,
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
    each worker once); otherwise the chains run one after another over
    one swap engine.
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
