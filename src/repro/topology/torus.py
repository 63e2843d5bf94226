"""k-ary n-dimensional torus topology.

The paper's machines are k-ary n-cubes with wraparound (torus) links and
separate unidirectional channels in both directions of every dimension
(Section 3.1 describes the 64-node radix-8 two-dimensional instance).
This module provides the exact discrete geometry the analytical model
abstracts: node coordinates, neighbor relationships, e-cube routes, and
hop distances.

Nodes are identified by integers ``0 .. k**n - 1``; the coordinate of node
``i`` in dimension ``j`` is digit ``j`` of ``i`` written radix ``k``
(dimension 0 is the least significant digit).  E-cube routing resolves
dimensions in increasing order, taking the shorter way around each ring
(ties at exactly half-way go in the positive direction).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError

__all__ = ["Torus", "DeltaBackend", "distance_backend"]


@functools.lru_cache(maxsize=64)
def _coordinate_array(radix: int, dimensions: int) -> np.ndarray:
    """Per-dimension coordinates of every node: shape (n, N), read-only."""
    count = radix**dimensions
    coords = np.empty((dimensions, count), dtype=np.int32)
    remaining = np.arange(count, dtype=np.int64)
    for dim in range(dimensions):
        coords[dim] = remaining % radix
        remaining //= radix
    coords.setflags(write=False)
    return coords


@functools.lru_cache(maxsize=64)
def _ring_distance_row(radix: int) -> np.ndarray:
    """Ring distance of every coordinate delta: ``row[d] = min(d, k - d)``.

    Indexed modulo ``k``, so a *signed* delta ``a - b`` gathers the right
    distance via ``np.take(..., mode="wrap")`` — ``row[-d]`` and
    ``row[d]`` coincide because ring distance is symmetric.  ``n`` such
    rows (O(n * k) memory) price every node pair of the torus.
    """
    positions = np.arange(radix, dtype=np.int64)
    row = np.minimum(positions, radix - positions)
    row.setflags(write=False)
    return row


@dataclass(frozen=True)
class Torus:
    """A k-ary n-cube torus.

    Parameters
    ----------
    radix:
        ``k``, nodes per dimension; must be >= 1.
    dimensions:
        ``n``; must be >= 1.
    """

    radix: int
    dimensions: int

    def __post_init__(self) -> None:
        if self.radix < 1:
            raise TopologyError(f"radix k must be >= 1, got {self.radix!r}")
        if self.dimensions < 1:
            raise TopologyError(
                f"dimensions n must be >= 1, got {self.dimensions!r}"
            )

    # ------------------------------------------------------------------
    # Size and identity.
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Total number of nodes ``N = k**n``."""
        return self.radix**self.dimensions

    def nodes(self) -> range:
        """All node identifiers."""
        return range(self.node_count)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.node_count:
            raise TopologyError(
                f"node {node!r} outside 0..{self.node_count - 1}"
            )

    # ------------------------------------------------------------------
    # Coordinates.
    # ------------------------------------------------------------------

    def coordinates(self, node: int) -> Tuple[int, ...]:
        """Radix-k digits of ``node``, dimension 0 first."""
        self._check_node(node)
        coords = []
        remaining = node
        for _ in range(self.dimensions):
            coords.append(remaining % self.radix)
            remaining //= self.radix
        return tuple(coords)

    def node_at(self, coords: Sequence[int]) -> int:
        """Node identifier for a coordinate tuple."""
        if len(coords) != self.dimensions:
            raise TopologyError(
                f"expected {self.dimensions} coordinates, got {len(coords)}"
            )
        node = 0
        for dim in reversed(range(self.dimensions)):
            coord = coords[dim]
            if not 0 <= coord < self.radix:
                raise TopologyError(
                    f"coordinate {coord!r} outside 0..{self.radix - 1} "
                    f"in dimension {dim}"
                )
            node = node * self.radix + coord
        return node

    # ------------------------------------------------------------------
    # Distance.
    # ------------------------------------------------------------------

    def ring_distance(self, a: int, b: int) -> int:
        """Shortest hop count between two positions on one ring."""
        delta = abs(a - b)
        return min(delta, self.radix - delta)

    def distance(self, source: int, destination: int) -> int:
        """Shortest torus hop distance between two nodes."""
        src = self.coordinates(source)
        dst = self.coordinates(destination)
        return sum(self.ring_distance(a, b) for a, b in zip(src, dst))

    def distance_vector(self, source: int, destination: int) -> Tuple[int, ...]:
        """Signed per-dimension offsets along the e-cube route.

        Positive entries mean travel in the increasing-coordinate
        direction; magnitudes sum to :meth:`distance`.  A tie (offset of
        exactly ``k/2`` on an even ring) resolves positive.
        """
        src = self.coordinates(source)
        dst = self.coordinates(destination)
        offsets = []
        for a, b in zip(src, dst):
            forward = (b - a) % self.radix
            backward = self.radix - forward
            if forward == 0:
                offsets.append(0)
            elif forward <= backward:
                offsets.append(forward)
            else:
                offsets.append(-backward)
        return tuple(offsets)

    # ------------------------------------------------------------------
    # Vectorized coordinates.
    # ------------------------------------------------------------------

    def coordinate_array(self) -> np.ndarray:
        """Read-only ``(dimensions, N)`` array of every node's coordinates.

        ``coordinate_array()[j, i] == coordinates(i)[j]``; cached per
        torus shape and shared between instances.
        """
        return _coordinate_array(self.radix, self.dimensions)

    # ------------------------------------------------------------------
    # Neighborhood and routes.
    # ------------------------------------------------------------------

    def neighbor(self, node: int, dimension: int, step: int) -> int:
        """Node one hop away along ``dimension`` (``step`` = +1 or -1)."""
        if not 0 <= dimension < self.dimensions:
            raise TopologyError(
                f"dimension {dimension!r} outside 0..{self.dimensions - 1}"
            )
        if step not in (1, -1):
            raise TopologyError(f"step must be +1 or -1, got {step!r}")
        coords = list(self.coordinates(node))
        coords[dimension] = (coords[dimension] + step) % self.radix
        return self.node_at(coords)

    def neighbors(self, node: int) -> List[int]:
        """All distinct single-hop neighbors of ``node``.

        On a radix-2 ring the +1 and -1 neighbors coincide; duplicates
        are removed, and on a radix-1 ring a node has no neighbors.
        """
        result: List[int] = []
        for dim in range(self.dimensions):
            for step in (1, -1):
                if self.radix == 1:
                    continue
                candidate = self.neighbor(node, dim, step)
                if candidate != node and candidate not in result:
                    result.append(candidate)
        return result

    def route_hops(
        self, source: int, destination: int
    ) -> Iterator[Tuple[int, int, int]]:
        """Channels used by the e-cube route as (node, dimension, step)."""
        coords = list(self.coordinates(source))
        offsets = self.distance_vector(source, destination)
        for dim, offset in enumerate(offsets):
            step = 1 if offset > 0 else -1
            for _ in range(abs(offset)):
                yield self.node_at(coords), dim, step
                coords[dim] = (coords[dim] + step) % self.radix

    # ------------------------------------------------------------------
    # Aggregate geometry.
    # ------------------------------------------------------------------

    def average_pair_distance(self) -> float:
        """Exact mean distance over ordered pairs of distinct nodes.

        The paper's convention ("nodes never send messages to
        themselves"): the average runs over the ``N * (N - 1)`` ordered
        pairs.  Computed in closed form, not by ring or pair enumeration.
        """
        # Sum of ring distances from a fixed position to all k positions
        # (including itself at 0) is the same for every position:
        # k**2 / 4 for even radix, (k**2 - 1) / 4 for odd — both are
        # exactly floor(k**2 / 4).
        ring_sum = self.radix * self.radix // 4
        nodes = self.node_count
        # Each dimension contributes ring_sum * k**(n-1) per source over
        # all destinations (the other dimensions range freely).
        total = self.dimensions * ring_sum * self.radix ** (self.dimensions - 1)
        if nodes == 1:
            raise TopologyError("no distinct pairs in a single-node torus")
        return total * nodes / (nodes * (nodes - 1))

    def diameter(self) -> int:
        """Maximum shortest-path distance between any two nodes."""
        return self.dimensions * (self.radix // 2)


# ----------------------------------------------------------------------
# Bulk distances.
#
# Mapping evaluation prices hop distances in bulk through DeltaBackend
# at every torus size (the optimizers' compiled swap kernel computes its
# own from node-id digits); the scalar :meth:`Torus.distance` is its
# oracle.
# ----------------------------------------------------------------------


class DeltaBackend:
    """Bulk hop distances: per-dimension ring rows over coordinates.

    ``pairwise(sources, destinations)`` broadcasts two integer node-id
    arrays and returns their exact hop distances, equal to
    :meth:`Torus.distance` pair for pair.  Memory is O(n * k) for the
    ring rows plus the shared O(n * N) coordinate array; distances are
    composed by one wrap-mode gather per dimension on the signed
    coordinate delta.  Exact for every (k, n), including the even-radix
    half-way ties (``min(d, k - d)`` is direction-free).
    """

    kind = "delta"

    def __init__(self, torus: Torus):
        self.torus = torus
        self._coords = torus.coordinate_array()
        self._ring = _ring_distance_row(torus.radix)

    def pairwise(self, sources, destinations) -> np.ndarray:
        src = np.asarray(sources, dtype=np.intp)
        dst = np.asarray(destinations, dtype=np.intp)
        count = self.torus.node_count
        for name, nodes in (("sources", src), ("destinations", dst)):
            if nodes.size and (nodes.min() < 0 or nodes.max() >= count):
                raise TopologyError(
                    f"{name} contain node ids outside 0..{count - 1}"
                )
        coords = self._coords
        ring = self._ring
        total = np.zeros(np.broadcast(src, dst).shape, dtype=np.int64)
        for dim in range(self.torus.dimensions):
            row = coords[dim]
            total += np.take(ring, row[src] - row[dst], mode="wrap")
        return total


def distance_backend(torus: Torus) -> DeltaBackend:
    """The bulk-distance backend for ``torus``: :class:`DeltaBackend`,
    at every size."""
    return DeltaBackend(torus)
