"""Simulated-annealing mapping optimization.

The hill climber in :mod:`repro.mapping.optimize` stops at the first
local optimum; annealing escapes shallow ones by accepting worsening
swaps with probability ``exp(-delta / T)`` under a geometric cooling
schedule.  Deterministic for a given seed, like everything else in the
mapping package.

:func:`run_chain` anneals one chain: :func:`anneal_mapping` runs it
once and :func:`repro.mapping.chains.anneal_chains` once per seed (both
through :func:`run_chains`).  A chain is one call into the compiled
kernel, :meth:`repro.mapping.engine.SwapEngine.run`, which draws from a
handoff of ``random.Random(seed)``'s state and so makes exactly the
draws the Python loop of :mod:`repro.mapping.reference` makes.  The best
state is journaled, not copied: the swaps made since the last best are
logged and undone at the end.  For integer edge weights — every
built-in graph — accept/reject decisions, the best assignment, and all
counters are bit-identical to that reference, which the property tests
enforce seed for seed.  Without the kernel the reference is what runs
(loudly; see :func:`repro.mapping.engine.kernel_available`).

Cooling semantics: the temperature decays once per *drawn* step, so the
schedule always spans exactly ``steps`` decays — including on draws
where both threads coincide and no swap is attempted.  Those skipped
draws are reported separately (``skipped_moves``) and excluded from
``attempted_moves``, which counts real swap attempts only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro import obs
from repro.errors import MappingError
from repro.mapping.base import Mapping
from repro.mapping.engine import SwapEngine, check_sizes, kernel_available
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
        results = run_chains(
            graph, torus, initial, (seed,), steps, initial_temperature, cooling
        )
    count_moves(results)
    return results[0]


def run_chains(
    graph: CommunicationGraph,
    torus: Torus,
    initial: Mapping,
    seeds: Tuple[int, ...],
    steps: int,
    initial_temperature: float,
    cooling: float,
) -> Tuple[AnnealResult, ...]:
    """One :func:`run_chain` per seed, one after another over one swap
    engine; the loop reference's results, loudly, without the kernel."""
    if not kernel_available():
        from repro.mapping.reference import reference_anneal_mapping

        return tuple(
            reference_anneal_mapping(
                graph, torus, initial, steps, seed, initial_temperature, cooling
            )
            for seed in seeds
        )
    engine = SwapEngine(graph, torus)
    return tuple(
        run_chain(engine, initial, seed, steps, initial_temperature, cooling)
        for seed in seeds
    )


def run_chain(
    engine: SwapEngine,
    initial: Mapping,
    seed: int,
    steps: int,
    initial_temperature: float,
    cooling: float,
) -> AnnealResult:
    """Anneal one chain from ``initial`` with its own ``seed`` stream:
    one :meth:`~repro.mapping.engine.SwapEngine.run` call."""
    position = np.array(initial.as_array())
    initial_distance, best_sum, accepted, attempted = engine.run(
        position, seed, steps, initial_temperature, cooling
    )
    distance = best_sum / engine.total_weight
    return AnnealResult(
        mapping=Mapping.from_array(position, initial.processors),
        distance=distance,
        initial_distance=initial_distance,
        best_distance=distance,
        accepted_moves=accepted,
        attempted_moves=attempted,
        skipped_moves=steps - attempted,
    )


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
