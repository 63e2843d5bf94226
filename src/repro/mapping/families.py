"""The validation suite of mappings (Section 3.2).

The paper's nine thread-to-processor mappings of the 64-thread synthetic
application sweep the average communication distance "from one to just
over six network hops" on the radix-8 2-D torus.  :func:`paper_mapping_suite`
reconstructs such a suite for any torus shaped like the application's
communication graph: deterministic structured mappings at the low end,
seeded random mappings near the Eq 17 expectation, and a hill-climbed
adversarial mapping at the high end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.mapping.base import Mapping
from repro.mapping.evaluate import average_distance
from repro.mapping.optimize import maximize_distance
from repro.mapping.strategies import (
    bit_reversal_mapping,
    dimension_scale_mapping,
    identity_mapping,
    random_mapping,
    shear_mapping,
)
from repro.topology.graphs import CommunicationGraph, torus_neighbor_graph
from repro.topology.torus import Torus

__all__ = ["NamedMapping", "paper_mapping_suite"]


@dataclass(frozen=True)
class NamedMapping:
    """A mapping with a label and its achieved average distance."""

    name: str
    mapping: Mapping
    distance: float


def _scale_multipliers(torus: Torus, stretch: int) -> List[int]:
    """Coordinate multipliers of ``stretch`` in every dimension."""
    return [stretch] * torus.dimensions


def paper_mapping_suite(
    torus: Torus,
    graph: CommunicationGraph = None,
    adversarial_steps: int = 4000,
    seed: int = 1992,
) -> List[NamedMapping]:
    """A Section 3.2-style suite of mappings with distances ~1 to 6+.

    Built for the torus-neighbor workload by default (``graph`` may
    override).  The returned list is sorted by achieved average distance
    and always starts at the ideal single-hop mapping.  Entries whose
    construction does not apply to the given torus (e.g. bit reversal on
    a non-power-of-two radix) are silently omitted, so the suite size can
    vary slightly with machine shape — the paper's 64-node radix-8 torus
    yields nine entries.
    """
    if graph is None:
        graph = torus_neighbor_graph(torus.radix, torus.dimensions)

    # Warm the shared distance table once up front: every candidate's
    # average_distance is a gather against it.  A torus above the
    # memory guard returns None here and those calls use the delta
    # backend instead.  The adversarial hill climb below needs no
    # table: its compiled swap kernel computes distances from node ids.
    torus.distance_table()

    candidates: List[NamedMapping] = []

    def add(name: str, mapping: Mapping) -> None:
        distance = average_distance(graph, mapping, torus)
        candidates.append(NamedMapping(name=name, mapping=mapping, distance=distance))

    add("ideal", identity_mapping(torus.node_count))
    add("shear", shear_mapping(torus, factor=1))
    add("shear-2", shear_mapping(torus, factor=2))
    if torus.radix >= 7:
        add("shear-3", shear_mapping(torus, factor=3))

    for stretch in (3, max(3, torus.radix // 2 - 1)):
        try:
            add(
                f"scale-{stretch}",
                dimension_scale_mapping(torus, _scale_multipliers(torus, stretch)),
            )
        except Exception:
            continue

    try:
        add("bit-reverse", bit_reversal_mapping(torus))
    except Exception:
        pass

    add("random-a", random_mapping(torus.node_count, seed))
    add("random-b", random_mapping(torus.node_count, seed + 1))
    add("random-c", random_mapping(torus.node_count, seed + 4))

    adversarial = maximize_distance(
        graph,
        torus,
        random_mapping(torus.node_count, seed + 2),
        steps=adversarial_steps,
        seed=seed + 3,
    )
    candidates.append(
        NamedMapping(
            name="adversarial", mapping=adversarial.mapping, distance=adversarial.distance
        )
    )

    # Deduplicate by achieved distance (scale variants can coincide on
    # small tori) and sort low-to-high as the paper's figures present them.
    unique: List[NamedMapping] = []
    seen = set()
    for named in sorted(candidates, key=lambda nm: nm.distance):
        key = round(named.distance, 6)
        if key in seen and named.name != "ideal":
            continue
        seen.add(key)
        unique.append(named)
    return unique
