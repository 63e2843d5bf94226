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
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError

__all__ = [
    "Torus",
    "DISTANCE_TABLE_MAX_NODES",
    "DELTA_BACKEND_MAX_NODES",
    "DistanceBackend",
    "DenseBackend",
    "DeltaBackend",
    "DigitBackend",
    "distance_backend",
]

#: Largest torus (in nodes) for which :meth:`Torus.distance_table` will
#: materialize the full N x N hop-distance table.  At the default cap the
#: table costs ``2 * 4096**2`` bytes = 32 MiB (entries are int16); above
#: it the table accessors return ``None`` and callers fall back to
#: on-the-fly vectorized distances (:meth:`Torus.pairwise_distance`).
DISTANCE_TABLE_MAX_NODES = 4096

#: Largest torus (in nodes) for which :func:`distance_backend` keeps the
#: cached ``(n, N)`` coordinate array resident for delta-compressed
#: gathers.  At the cap the coordinates cost ``4 * n * 2**24`` bytes
#: (64 MiB per dimension); beyond it the backend degrades to the
#: zero-extra-memory digit walk of :meth:`Torus.pairwise_distance`.
DELTA_BACKEND_MAX_NODES = 1 << 24


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
    ``row[d]`` coincide because ring distance is symmetric.  This is the
    whole delta-compressed distance table: ``n`` such rows (O(n * k)
    memory) replace the dense N x N table for arbitrarily large tori.
    """
    positions = np.arange(radix, dtype=np.int64)
    row = np.minimum(positions, radix - positions)
    row.setflags(write=False)
    return row


@functools.lru_cache(maxsize=4)
def _distance_table(radix: int, dimensions: int) -> np.ndarray:
    """Full N x N torus hop-distance table (int16, read-only)."""
    coords = _coordinate_array(radix, dimensions)
    count = radix**dimensions
    table = np.zeros((count, count), dtype=np.int16)
    for dim in range(dimensions):
        ring = coords[dim].astype(np.int16)
        delta = np.abs(ring[:, None] - ring[None, :])
        np.minimum(delta, radix - delta, out=delta)
        table += delta
    table.setflags(write=False)
    return table


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
    # Vectorized distance kernels.
    # ------------------------------------------------------------------

    def coordinate_array(self) -> np.ndarray:
        """Read-only ``(dimensions, N)`` array of every node's coordinates.

        ``coordinate_array()[j, i] == coordinates(i)[j]``; cached per
        torus shape and shared between instances.
        """
        return _coordinate_array(self.radix, self.dimensions)

    def distance_table(self, max_nodes: Optional[int] = None) -> Optional[np.ndarray]:
        """The full ``N x N`` hop-distance table, or ``None`` if too big.

        ``table[a, b] == distance(a, b)`` for every node pair; the array
        is read-only, lazily built once per torus shape, and cached.  The
        memory guard: tori with more than ``max_nodes`` nodes (default
        :data:`DISTANCE_TABLE_MAX_NODES`) return ``None`` instead of
        materializing the quadratic table — callers fall back to
        :meth:`pairwise_distance`, which needs only O(pairs) memory.
        """
        cap = DISTANCE_TABLE_MAX_NODES if max_nodes is None else max_nodes
        if self.node_count > cap:
            return None
        return _distance_table(self.radix, self.dimensions)

    def pairwise_distance(self, sources, destinations) -> np.ndarray:
        """Elementwise torus distances for arrays of node identifiers.

        Broadcasts ``sources`` against ``destinations`` and returns the
        hop distance of every pair without touching the N x N table, so
        it works on tori of any size.  Matches :meth:`distance` exactly.
        """
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(destinations, dtype=np.int64)
        for name, nodes in (("sources", src), ("destinations", dst)):
            if nodes.size and (nodes.min() < 0 or nodes.max() >= self.node_count):
                raise TopologyError(
                    f"{name} contain node ids outside 0..{self.node_count - 1}"
                )
        total = np.zeros(np.broadcast(src, dst).shape, dtype=np.int64)
        src = src.copy()
        dst = dst.copy()
        for _ in range(self.dimensions):
            delta = np.abs(src % self.radix - dst % self.radix)
            total += np.minimum(delta, self.radix - delta)
            src //= self.radix
            dst //= self.radix
        return total

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

    def ecube_route(self, source: int, destination: int) -> List[int]:
        """Nodes visited by e-cube routing, inclusive of both endpoints.

        Dimensions are corrected in increasing order; within a dimension
        the route takes the shorter ring direction (positive on ties).
        """
        self._check_node(destination)
        route = [source]
        coords = list(self.coordinates(source))
        offsets = self.distance_vector(source, destination)
        for dim, offset in enumerate(offsets):
            step = 1 if offset > 0 else -1
            for _ in range(abs(offset)):
                coords[dim] = (coords[dim] + step) % self.radix
                route.append(self.node_at(coords))
        return route

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

    def average_pair_distance(self, include_self: bool = False) -> float:
        """Exact mean distance over ordered node pairs.

        With ``include_self=False`` (the paper's convention: "nodes never
        send messages to themselves") the average runs over the
        ``N * (N - 1)`` ordered pairs of distinct nodes.  Computed in
        closed form, not by ring or pair enumeration.
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
        if include_self:
            return total / nodes
        if nodes == 1:
            raise TopologyError("no distinct pairs in a single-node torus")
        return total * nodes / (nodes * (nodes - 1))

    def diameter(self) -> int:
        """Maximum shortest-path distance between any two nodes."""
        return self.dimensions * (self.radix // 2)


# ----------------------------------------------------------------------
# Distance backends.
#
# Every consumer that prices hop distances in bulk — the swap engine,
# mapping evaluation, the annealers — goes through one of these.  The
# accessor :func:`distance_backend` is the single place where the memory
# guard is consulted, fixing the historical inconsistency where
# ``SwapEngine`` cached the guard decision at construction while
# ``evaluate.py`` re-queried it per call.
# ----------------------------------------------------------------------


class DistanceBackend:
    """Uniform bulk-distance interface over one torus shape.

    ``pairwise(sources, destinations)`` broadcasts two integer node-id
    arrays and returns their exact hop distances.  All backends are
    integer-exact and agree bit for bit with :meth:`Torus.distance`; they
    differ only in memory/time trade-offs.  ``table`` is the dense
    N x N array when this backend holds one, else ``None``.
    """

    kind: str = "abstract"

    def __init__(self, torus: Torus):
        self.torus = torus
        self.table: Optional[np.ndarray] = None

    def pairwise(self, sources, destinations) -> np.ndarray:
        raise NotImplementedError


class DenseBackend(DistanceBackend):
    """Small-N fast path: one gather from the cached N x N table."""

    kind = "dense"

    def __init__(self, torus: Torus, table: np.ndarray):
        super().__init__(torus)
        self.table = table

    def pairwise(self, sources, destinations) -> np.ndarray:
        return self.table[sources, destinations]


class DeltaBackend(DistanceBackend):
    """Delta-compressed path: per-dimension ring rows over coordinates.

    Memory is O(n * k) for the ring rows plus the O(n * N) coordinate
    array the vectorized kernels already share; distances are composed
    by one wrap-mode gather per dimension on the signed coordinate
    delta.  Exact for every (k, n), including the even-radix half-way
    ties (``min(d, k - d)`` is direction-free).
    """

    kind = "delta"

    def __init__(self, torus: Torus):
        super().__init__(torus)
        self._coords = torus.coordinate_array()
        self._ring = _ring_distance_row(torus.radix)

    def pairwise(self, sources, destinations) -> np.ndarray:
        src = np.asarray(sources, dtype=np.intp)
        dst = np.asarray(destinations, dtype=np.intp)
        coords = self._coords
        ring = self._ring
        total = np.zeros(np.broadcast(src, dst).shape, dtype=np.int64)
        for dim in range(self.torus.dimensions):
            row = coords[dim]
            total += np.take(ring, row[src] - row[dst], mode="wrap")
        return total


class DigitBackend(DistanceBackend):
    """Unbounded fallback: the O(1)-extra-memory digit walk."""

    kind = "digit"

    def pairwise(self, sources, destinations) -> np.ndarray:
        return self.torus.pairwise_distance(sources, destinations)


def distance_backend(torus: Torus) -> DistanceBackend:
    """The bulk-distance backend appropriate for ``torus``'s size.

    The *only* place guard behavior is decided: tori within
    :data:`DISTANCE_TABLE_MAX_NODES` get the dense table (also the
    parity oracle for the compressed path), tori within
    :data:`DELTA_BACKEND_MAX_NODES` get the delta-compressed engine, and
    anything larger gets the digit walk.  ``torus.distance_table()`` is
    consulted per call, so runtime adjustments to the module-level cap
    (as the guard tests do) take effect immediately.
    """
    table = torus.distance_table()
    if table is not None:
        return DenseBackend(torus, table)
    if torus.node_count <= DELTA_BACKEND_MAX_NODES:
        return DeltaBackend(torus)
    return DigitBackend(torus)
