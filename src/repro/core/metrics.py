"""Performance metrics and locality-gain comparisons (Section 2.6).

The paper's metric of per-processor performance is the average transaction
issue rate ``r_t = 1 / t_t``: with the computation grain ``T_r`` held
constant, useful work is done at rate ``T_r / t_t``, which is proportional
to ``r_t``.  Aggregate performance of an ``N``-processor machine is
``N * r_t``, and two configurations are compared by the ratio of their
aggregate performance.

The headline comparison (Section 4.2) is the **expected gain from
exploiting physical locality**: the ratio of the transaction rate under an
*ideal* mapping (every communication one hop) to that under a *random*
mapping (uniform traffic at the Eq 17 distance) for the same application
and machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.combined import OperatingPoint, solve, solve_batch
from repro.core.network import TorusNetworkModel
from repro.core.node import NodeModel
from repro.errors import ParameterError
from repro.topology.distance import random_traffic_distance_for_size

__all__ = [
    "performance_ratio",
    "GainResult",
    "expected_gain",
    "expected_gain_batch",
]


def performance_ratio(numerator: OperatingPoint, denominator: OperatingPoint) -> float:
    """Ratio of transaction rates — the paper's configuration comparator.

    Machine size cancels when both points describe the same machine, so
    the per-processor rate ratio equals the aggregate ratio.
    """
    return numerator.transaction_rate / denominator.transaction_rate


@dataclass(frozen=True)
class GainResult:
    """Expected gain from exploiting physical locality at one machine size."""

    processors: float
    ideal_distance: float
    random_distance: float
    ideal: OperatingPoint
    random: OperatingPoint

    @property
    def gain(self) -> float:
        """Transaction-rate ratio, ideal over random mapping."""
        return performance_ratio(self.ideal, self.random)


def expected_gain(
    node: NodeModel,
    network: TorusNetworkModel,
    processors: float,
    ideal_distance: float = 1.0,
) -> GainResult:
    """Expected gain for a machine of ``processors`` nodes (Figure 7).

    The random-mapping distance comes from Eq 17 with the continuous
    radix ``N**(1/n)``; the ideal mapping communicates over
    ``ideal_distance`` hops (1 for the paper's torus-neighbor
    application).
    """
    if not ideal_distance > 0:
        raise ParameterError(
            f"ideal_distance must be positive, got {ideal_distance!r}"
        )
    random_distance = random_traffic_distance_for_size(
        processors, network.dimensions
    )
    return GainResult(
        processors=processors,
        ideal_distance=ideal_distance,
        random_distance=random_distance,
        ideal=solve(node, network, ideal_distance),
        random=solve(node, network, random_distance),
    )


def expected_gain_batch(
    node: NodeModel,
    network: TorusNetworkModel,
    sizes: Sequence[float],
) -> List[GainResult]:
    """Expected gain at many machine sizes in one batched solve.

    Semantically identical to calling :func:`expected_gain` per size
    with the one-hop ideal mapping, but all random-mapping operating
    points are found by one :func:`~repro.core.combined.solve_batch`
    call, and the ideal-mapping point — shared by every size — is solved
    exactly once.
    """
    sizes = [float(n) for n in np.asarray(sizes, dtype=float).ravel()]
    random_distances = np.array(
        [
            random_traffic_distance_for_size(n, network.dimensions)
            for n in sizes
        ]
    )
    if not random_distances.size:
        return []
    randoms = solve_batch(node, network, random_distances)
    ideal = solve(node, network, 1.0)
    return [
        GainResult(
            processors=processors,
            ideal_distance=1.0,
            random_distance=float(random_distances[i]),
            ideal=ideal,
            random=randoms.point(i),
        )
        for i, processors in enumerate(sizes)
    ]
