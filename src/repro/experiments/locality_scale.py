"""Locality at scale: searched mappings across the paper's full N range.

Figure 7 states its gain claims for machines up to a *million*
processors, but the mapping experiments elsewhere in this repo run on
the Section 3 machine (64 nodes) — far below the regime where the
random-mapping distance grows like ``sqrt(N)`` and the locality gain
reaches 40-55x.  This experiment closes that gap: for 2-D and 5-D tori
from 64 nodes up to 10^6, it anneals the torus-neighbor application
from a random placement (the compiled swap kernel computes distances
from node ids; evaluation uses the delta-compressed distance backend,
:class:`repro.topology.torus.DeltaBackend` — O(n * k) ring rows at
every size) and compares

* the measured random-mapping distance against the Eq 17 analytical
  expectation (the ``n * N^(1/n) / 4`` growth law),
* the annealed distance against the single-hop ideal floor, and
* the model gain realized by the searched mapping (operating-point
  ratio at the two measured distances) against the analytical Figure 7
  ideal-vs-random bound.

The annealer runs a fixed swap budget at every size, so the table also
shows the practical point the paper makes implicitly: at 10^5-10^6
nodes a generic stochastic search barely dents the random plateau —
locality at scale has to come from *constructed* mappings (the paper's
ideal embedding), with search useful for polish.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro import obs
from repro.analysis.tables import render_table
from repro.core.metrics import performance_ratio
from repro.experiments.alewife import alewife_system
from repro.experiments.result import ExperimentResult
from repro.mapping.anneal import anneal_mapping
from repro.mapping.evaluate import average_distance
from repro.mapping.strategies import identity_mapping, random_mapping
from repro.topology.distance import random_traffic_distance_exact
from repro.topology.graphs import torus_neighbor_graph
from repro.topology.torus import Torus

__all__ = ["run", "SHAPES", "QUICK_SHAPES"]

SEED = 1992

#: (radix, dimensions) of every machine swept in the full run — 2-D
#: tori through the Figure 7 size axis (64 .. 10^6 nodes) plus the
#: paper's high-dimensional comparison point (k=16, n=5: ~10^6 nodes).
SHAPES: Tuple[Tuple[int, int], ...] = (
    (8, 2),
    (32, 2),
    (100, 2),
    (316, 2),
    (1000, 2),
    (16, 5),
)

#: Sizes small enough for the CI quick path (still reaching 10^4 nodes
#: at radix 100).
QUICK_SHAPES: Tuple[Tuple[int, int], ...] = ((8, 2), (32, 2), (100, 2))


def run(quick: bool = False) -> ExperimentResult:
    """Anneal the neighbor application at each size; tabulate vs theory."""
    shapes = QUICK_SHAPES if quick else SHAPES
    steps = 4000 if quick else 20000

    rows: List[Tuple] = []
    data: Dict[str, Dict[str, float]] = {}
    with obs.span(
        "experiment.locality_scale", shapes=len(shapes), steps=steps
    ):
        for radix, dimensions in shapes:
            torus = Torus(radix=radix, dimensions=dimensions)
            nodes = torus.node_count
            with obs.span("locality_scale.machine", nodes=nodes):
                graph = torus_neighbor_graph(radix, dimensions)
                floor = average_distance(
                    graph, identity_mapping(nodes), torus
                )
                start = random_mapping(nodes, seed=SEED)
                result = anneal_mapping(
                    graph, torus, start, steps=steps, seed=SEED
                )
            eq17 = random_traffic_distance_exact(radix, dimensions)
            system = alewife_system(contexts=1).with_dimensions(dimensions)
            analytic = system.expected_gain(nodes, ideal_distance=floor)
            measured_gain = performance_ratio(
                system.operating_point(result.best_distance),
                system.operating_point(result.initial_distance),
            )
            rows.append(
                (
                    f"{nodes:,}",
                    f"{radix}^{dimensions}",
                    round(floor, 2),
                    round(eq17, 2),
                    round(result.initial_distance, 2),
                    round(result.best_distance, 2),
                    round(measured_gain, 2),
                    round(analytic.gain, 2),
                )
            )
            data[f"{radix}x{dimensions}"] = {
                "nodes": nodes,
                "floor": floor,
                "eq17": eq17,
                "random": result.initial_distance,
                "annealed": result.best_distance,
                "measured_gain": measured_gain,
                "analytic_gain": analytic.gain,
            }

    table = render_table(
        [
            "N",
            "shape",
            "d ideal",
            "d Eq17",
            "d random",
            "d annealed",
            "gain (search)",
            "gain (bound)",
        ],
        rows,
        title=(
            f"Searched-mapping locality vs machine size "
            f"({steps} annealing steps per machine)"
        ),
    )
    return ExperimentResult(
        experiment="locality-scale",
        title="Locality gain vs machine size with searched mappings",
        tables=[table],
        notes=[
            "Measured random distances track the Eq 17 sqrt(N)-style "
            "growth law at every size; one delta-compressed distance "
            "backend (O(n*k) ring rows) prices every machine, in exact "
            "integer hops.",
            "The fixed swap budget recovers most of the gap on small "
            "machines but almost none of it at 10^5-10^6 nodes — the "
            "Figure 7 bound at scale is reachable only by constructed "
            "embeddings, which is exactly how the paper frames its "
            "ideal mapping.",
        ],
        data=data,
    )
