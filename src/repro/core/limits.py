"""Asymptotic network behavior under feedback (Section 4.1, Eq 16).

The paper's first analytical result: with a *finite* latency sensitivity
``s`` (i.e. a bounded number of outstanding transactions per processor),
the feedback between application and network keeps channel utilization
below saturation no matter how large the machine grows.  As the average
communication distance ``d`` increases, the average per-hop latency
approaches the constant

    ``T_h -> s * B / (2 * n)``        (Eq 16)

(or 1, if ``s * B / (2n) < 1`` — the network is then never stressed).
Intuition: in the communication-bound regime ``r_m ~ s / T_m`` and
``T_m ~ d * T_h``, so channel utilization ``rho = r_m * B * d / (2n)``
tends to ``s * B / (2 n T_h)``; the only self-consistent limit pushes
``rho -> 1`` with ``T_h`` pinned at Eq 16's value.

Because ``T_h`` is asymptotically constant, **communication latency is
linear in communication distance**, which is what bounds locality gains
to (at most) the distance-reduction factor.  This module provides the
limit itself and helpers to measure how quickly machines approach it
(Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.combined import OperatingPoint, solve, solve_batch
from repro.core.network import TorusNetworkModel
from repro.core.node import NodeModel
from repro.errors import ParameterError
from repro.topology.distance import random_traffic_distance_for_size

__all__ = [
    "limiting_per_hop_latency",
    "limiting_per_hop_latency_for",
    "PerHopSample",
    "per_hop_curve",
    "size_to_reach_fraction",
]


def limiting_per_hop_latency(
    sensitivity: float, message_size: float, dimensions: int
) -> float:
    """Eq 16: the asymptotic per-hop latency ``max(1, s * B / (2 n))``.

    With the paper's validated parameters (``s = 3.26``, ``B = 12``,
    ``n = 2``) this is 9.78 network cycles — the "approximately 9.8"
    quoted for Figure 6.
    """
    if not sensitivity > 0:
        raise ParameterError(f"sensitivity s must be positive, got {sensitivity!r}")
    if not message_size > 0:
        raise ParameterError(
            f"message_size B must be positive, got {message_size!r}"
        )
    if dimensions < 1:
        raise ParameterError(f"dimensions n must be >= 1, got {dimensions!r}")
    return max(1.0, sensitivity * message_size / (2.0 * dimensions))


def limiting_per_hop_latency_for(
    node: NodeModel, network: TorusNetworkModel
) -> float:
    """Eq 16 evaluated from composed model objects."""
    return limiting_per_hop_latency(
        node.sensitivity, network.message_size, network.dimensions
    )


@dataclass(frozen=True)
class PerHopSample:
    """One point of a Figure 6-style curve."""

    processors: float
    distance: float
    point: OperatingPoint

    @property
    def per_hop_latency(self) -> float:
        return self.point.per_hop_latency


def per_hop_curve(
    node: NodeModel,
    network: TorusNetworkModel,
    sizes: Sequence[float],
) -> list:
    """``T_h`` vs machine size under random mappings (Figure 6).

    Each machine size ``N`` maps to the Eq 17 random-traffic distance for
    the continuous radix ``N**(1/n)``; the combined model is solved there
    and the per-hop latency read off the operating point.
    """
    size_values = [float(n) for n in sizes]
    distances = [
        random_traffic_distance_for_size(n, network.dimensions)
        for n in size_values
    ]
    if not distances:
        return []
    batch = solve_batch(node, network, distances)
    return [
        PerHopSample(processors=n, distance=d, point=batch.point(i))
        for i, (n, d) in enumerate(zip(size_values, distances))
    ]


def size_to_reach_fraction(
    node: NodeModel,
    network: TorusNetworkModel,
    fraction: float,
) -> float:
    """Smallest machine size whose ``T_h`` reaches ``fraction`` of Eq 16.

    Used to check the paper's claim that the small-grain application
    reaches over 80 % of the limiting value "with a few thousand
    processors".  Searches by bisection on ``log N``; raises
    :class:`ParameterError` if the fraction is not reached by
    ``N = 10**9``.
    """
    if not 0 < fraction < 1:
        raise ParameterError(
            f"fraction must lie strictly in (0, 1), got {fraction!r}"
        )
    limit = limiting_per_hop_latency_for(node, network)
    target = fraction * limit

    def per_hop(processors: float) -> float:
        distance = random_traffic_distance_for_size(
            processors, network.dimensions
        )
        return solve(node, network, distance).per_hop_latency

    low, high = 2.0, 1e9
    if per_hop(high) < target:
        raise ParameterError(
            f"per-hop latency does not reach {fraction:g} of its limit "
            f"by N = {high:g}"
        )
    if per_hop(low) >= target:
        return low
    for _ in range(200):
        mid = (low * high) ** 0.5
        if per_hop(mid) >= target:
            high = mid
        else:
            low = mid
        if high / low < 1.0 + 1e-9:
            break
    return high
