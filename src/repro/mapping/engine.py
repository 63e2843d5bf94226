"""Array-backed swap pricing shared by the mapping optimizers.

The hill climber, the annealer and the multi-chain annealer all iterate
the same move: *swap the processors of two threads and price the change
in weighted hop-sum*.  :meth:`SwapEngine.swap_delta` is the one pricer
they share.  This module precomputes everything it needs once per
(graph, torus) pair —

* the torus distance backend (:func:`repro.topology.torus.distance_backend`:
  the dense table at small N, the delta-compressed ring-row engine
  above the memory guard, the digit walk beyond that), and
* the per-thread incident edges (:meth:`CommunicationGraph.incident_csr`),
  read as a zero-copy ``(threads, degree)`` view when every thread has
  the same incident count (every torus-neighbor graph) and as per-call
  zero-padded CSR windows otherwise.

A batch of swaps ("lanes", one per chain) is priced with one distance
call: every endpoint's neighbor positions against its processor after
the swap and before it.  Edges *between* the two swapped threads are
invariant under the swap (both endpoints move) and are masked out,
mirroring the loop implementation's ``neighbor == other`` skip.  For
integer edge weights every reduction here is exact, so deltas — and
therefore accept/reject decisions — are bit-identical to the per-edge
loops in :mod:`repro.mapping.reference`, whichever distance backend is
active.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import MappingError
from repro.mapping.base import Mapping
from repro.topology.graphs import CommunicationGraph
from repro.topology.torus import Torus, distance_backend

__all__ = ["SwapEngine"]


def check_sizes(
    graph: CommunicationGraph, torus: Torus, initial: Mapping, steps: int
) -> None:
    """The optimizers' shared argument validation."""
    initial.require_bijective()
    if initial.threads != graph.threads:
        raise MappingError(
            f"mapping covers {initial.threads} threads but graph has "
            f"{graph.threads}"
        )
    if initial.processors != torus.node_count:
        raise MappingError(
            f"mapping targets {initial.processors} processors but torus "
            f"has {torus.node_count} nodes"
        )
    if steps < 0:
        raise MappingError(f"steps must be >= 0, got {steps!r}")


class SwapEngine:
    """Precomputed locality arrays for pricing pairwise-swap moves."""

    def __init__(self, graph: CommunicationGraph, torus: Torus):
        self.graph = graph
        self.torus = torus
        self.backend = distance_backend(torus)
        self.total_weight = graph.total_weight
        self._csr = graph.incident_csr()
        indptr, neighbors, weights = self._csr
        degrees = np.diff(indptr)
        self._regular: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if degrees.min() == degrees.max():
            shape = (graph.threads, int(degrees[0]))
            self._regular = (neighbors.reshape(shape), weights.reshape(shape))

    def regular_adjacency(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(threads, degree)`` neighbor/weight views, or ``None``.

        When every thread has the same incident count (every
        torus-neighbor graph) these are read-only reshape views of the
        :meth:`CommunicationGraph.incident_csr` arrays — no copy.
        """
        return self._regular

    def incident_rows(self, ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Neighbors and weights of each thread in ``ends``, one row each.

        Rows of a regular graph come from :meth:`regular_adjacency`.
        Otherwise each call gathers a window of the CSR arrays as wide as
        its largest row; entries past a row's end get weight 0 (and a
        valid neighbor id), so they add exactly ``0.0`` to every sum.
        Nothing of size ``threads x max_degree`` is ever built, so a hub
        of degree N costs O(N) only when it is drawn.
        """
        if self._regular is not None:
            neighbors, weights = self._regular
            return neighbors.take(ends, axis=0), weights.take(ends, axis=0)
        indptr, neighbors, weights = self._csr
        begin = indptr[ends]
        count = indptr[ends + 1] - begin
        column = np.arange(count.max())
        inside = column < count[..., None]
        index = np.where(inside, begin[..., None] + column, 0)
        return neighbors[index], weights[index] * inside

    def objective(self, position: np.ndarray) -> Tuple[float, float]:
        """``(weighted hop-sum, average distance)`` of one assignment.

        One gather over every edge; the same expressions as
        :func:`repro.mapping.evaluate.average_distance`, so the average
        is identical to it.
        """
        src, dst, weight = self.graph.edge_arrays()
        total = float(weight @ self.backend.pairwise(position[src], position[dst]))
        return total, total / float(weight.sum())

    def swap_delta(self, position, thread_a, thread_b, rows=None):
        """Change in weighted hop-sum if each lane's two threads swap.

        Scalar form: ``position`` is one chain's ``(threads,)``
        assignment and ``thread_a``/``thread_b`` are ints; returns one
        delta.  Lane form: ``position`` is ``(chains, threads)`` and
        ``rows``, ``thread_a``, ``thread_b`` are equal-length integer
        sequences, one entry per lane (a lane's two threads differ);
        returns an array of one delta per lane.  ``position`` is not
        modified.

        One backend call prices every lane: each endpoint's neighbors
        against its processor after the swap (the partner's) and before
        it.  Differences are taken in int64; for integer weights the
        weighted sums are exact, so the result matches the loop
        reference bit for bit.
        """
        # order[1] holds each lane's endpoints (a, b), order[0] their
        # partners (b, a), whose processors the endpoints take.
        order = np.array(
            (thread_b, thread_a, thread_a, thread_b), dtype=np.intp
        ).reshape(2, 2, -1)
        ends, partners = order[1], order[0]
        neighbors, weights = self.incident_rows(ends)
        # Flat 1-D gathers (much cheaper than 2-D fancy indexing); a lone
        # chain needs no row offsets.
        flat = position.reshape(-1)
        if rows is None or position.shape[0] == 1:
            sources = flat.take(order)
            around = flat.take(neighbors)
        else:
            offset = np.asarray(rows, dtype=np.intp) * position.shape[1]
            sources = flat.take(order + offset)
            around = flat.take(neighbors + offset[:, None])
        hops = self.backend.pairwise(sources[..., None], around)
        gain = np.subtract(hops[0], hops[1], dtype=np.int64)
        weight = weights * (neighbors != partners[..., None])
        deltas = np.einsum("ijk,ijk->j", weight, gain)
        return deltas if rows is not None else deltas[0]
