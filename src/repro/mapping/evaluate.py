"""Evaluating mappings: the operational locality metric.

The paper reduces all communication-pattern information to one number —
the **average communication distance** ``d`` in network hops (Section
2.1's "operational definition of physical locality").  This module
computes that number exactly for a (communication graph, mapping,
topology) triple, along with the distance distribution for finer-grained
diagnostics.

The kernels are vectorized: edge endpoints come from the graph's array
views (:meth:`CommunicationGraph.edge_arrays`), hop counts are a single
gather from the torus distance table (:meth:`Torus.distance_table`), and
the histogram is one weighted ``np.bincount``.  Tori above the distance
table's memory guard use the delta-compressed backend (per-dimension
ring rows, O(n * k) memory), which computes the same hop counts without
the quadratic table.  All built-in
communication graphs carry integer edge weights, for which the array
reductions are exact — results equal the per-edge loop bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.errors import MappingError
from repro.mapping.base import Mapping
from repro.topology.graphs import CommunicationGraph
from repro.topology.torus import Torus, distance_backend

__all__ = ["average_distance", "distance_histogram", "MappingEvaluation", "evaluate"]


def _check_compatible(
    graph: CommunicationGraph, mapping: Mapping, torus: Torus
) -> None:
    if mapping.threads != graph.threads:
        raise MappingError(
            f"mapping covers {mapping.threads} threads but the graph has "
            f"{graph.threads}"
        )
    if mapping.processors != torus.node_count:
        raise MappingError(
            f"mapping targets {mapping.processors} processors but the torus "
            f"has {torus.node_count} nodes"
        )


def edge_hop_counts(
    graph: CommunicationGraph, mapping: Mapping, torus: Torus
) -> np.ndarray:
    """Network hops of every edge under ``mapping``, in edge order.

    One gather through :func:`repro.topology.torus.distance_backend` —
    the same accessor the swap engine uses, so the memory-guard decision
    (dense table, delta-compressed rows, or digit walk) is made in
    exactly one place.
    """
    src, dst, _ = graph.edge_arrays()
    position = mapping.as_array()
    return distance_backend(torus).pairwise(position[src], position[dst])


def average_distance(
    graph: CommunicationGraph, mapping: Mapping, torus: Torus
) -> float:
    """Weighted mean network hops per message — the model's ``d``.

    Collocated communicating threads contribute distance 0 (their
    "messages" never enter the network); the paper's bijective mappings
    never produce that case for its neighbor graph.
    """
    _check_compatible(graph, mapping, torus)
    _, _, weight = graph.edge_arrays()
    weight_sum = float(weight.sum())
    if weight_sum == 0.0:
        raise MappingError("communication graph has no edges")
    hops = edge_hop_counts(graph, mapping, torus)
    return float(weight @ hops) / weight_sum


def distance_histogram(
    graph: CommunicationGraph, mapping: Mapping, torus: Torus
) -> Dict[int, float]:
    """Total edge weight at each hop distance."""
    _check_compatible(graph, mapping, torus)
    _, _, weight = graph.edge_arrays()
    hops = edge_hop_counts(graph, mapping, torus)
    totals = np.bincount(hops, weights=weight)
    occupied = np.bincount(hops, minlength=totals.size)
    return {
        int(distance): float(totals[distance])
        for distance in np.nonzero(occupied)[0]
    }


@dataclass(frozen=True)
class MappingEvaluation:
    """Summary statistics of one mapping of one graph onto one torus."""

    average: float
    maximum: int
    minimum: int
    per_dimension: float
    histogram: Dict[int, float]


def evaluate(
    graph: CommunicationGraph, mapping: Mapping, torus: Torus
) -> MappingEvaluation:
    """Full distance statistics for a mapping.

    ``per_dimension`` is the model's ``k_d = d / n`` (Eq 13) for this
    mapping, ready to feed the network model.
    """
    histogram = distance_histogram(graph, mapping, torus)
    weight_sum = sum(histogram.values())
    average = sum(hops * weight for hops, weight in histogram.items()) / weight_sum
    return MappingEvaluation(
        average=average,
        maximum=max(histogram),
        minimum=min(histogram),
        per_dimension=average / torus.dimensions,
        histogram=histogram,
    )
