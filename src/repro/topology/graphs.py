"""Inter-thread communication graphs.

An application's *physical locality* lives in the structure of its
communication graph: how often each pair of threads exchanges data.  This
module provides the graphs the experiments need — above all the paper's
synthetic application, whose 64 threads talk to their neighbors in a
radix-8 two-dimensional torus pattern (Section 3.2) — plus structureless
baselines (uniform random, all-to-all) for contrast.

A graph is represented as a :class:`CommunicationGraph`: a set of weighted
directed edges over thread identifiers ``0 .. threads - 1``, where the
weight of ``(a, b)`` is the relative frequency with which thread ``a``
sends to thread ``b``.  Weights need not be normalized; consumers work
with weighted averages.

The one stored representation is the read-only ``(src, dst, weight)``
edge arrays (:meth:`CommunicationGraph.edge_arrays`), whichever
constructor built the graph: the dict of ``(src, dst) -> weight``
entries that small graphs build edge by edge is validated once and
converted, and :meth:`CommunicationGraph.from_arrays` installs arrays
directly, so a million-node torus never holds a per-edge dict.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.topology.torus import Torus

__all__ = [
    "CommunicationGraph",
    "torus_neighbor_graph",
    "ring_graph",
    "all_to_all_graph",
    "nearest_neighbor_grid_graph",
    "butterfly_exchange_graph",
    "star_graph",
    "nine_point_stencil_graph",
]

Edge = Tuple[int, int]


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise TopologyError(f"threads must be >= 1, got {threads!r}")


class CommunicationGraph:
    """Weighted directed communication pattern over ``threads`` threads.

    Parameters
    ----------
    threads:
        Number of threads; must be >= 1.
    weights:
        ``(src, dst) -> weight`` for every directed edge (default: no
        edges).  Endpoints lie in ``0..threads - 1``, self-edges are not
        allowed, and weights are positive.

    The one stored representation is the read-only ``(src, dst, weight)``
    arrays :meth:`edge_arrays` returns, in edge order: the insertion
    order of ``weights``, or the order given to :meth:`from_arrays`.
    :attr:`weights` is a read-only mapping built from them on first
    access and kept.  Graphs are immutable; two graphs are equal (and
    hash equal) when they have the same thread count and the same edges
    and weights in the same order, however they were built.
    """

    __slots__ = (
        "threads",
        "_arrays",
        "_weights",
        "_weight_sum",
        "_out_csr",
        "_incident_csr",
    )

    def __init__(
        self, threads: int, weights: Optional[Dict[Edge, float]] = None
    ) -> None:
        _check_threads(threads)
        weights = {} if weights is None else weights
        for (src, dst), weight in weights.items():
            if not 0 <= src < threads or not 0 <= dst < threads:
                raise TopologyError(
                    f"edge ({src}, {dst}) outside thread range 0..{threads - 1}"
                )
            if src == dst:
                raise TopologyError(f"self-edge on thread {src} is not allowed")
            if not weight > 0:
                raise TopologyError(
                    f"edge ({src}, {dst}) must have positive weight, got {weight!r}"
                )
        count = len(weights)
        self._install(
            threads,
            np.fromiter((src for src, _ in weights), dtype=np.intp, count=count),
            np.fromiter((dst for _, dst in weights), dtype=np.intp, count=count),
            np.fromiter(weights.values(), dtype=np.float64, count=count),
        )

    def _install(
        self, threads: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray
    ) -> None:
        for array in (src, dst, weight):
            array.setflags(write=False)
        object.__setattr__(self, "threads", threads)
        object.__setattr__(self, "_arrays", (src, dst, weight))
        for name in ("_weights", "_weight_sum", "_out_csr", "_incident_csr"):
            object.__setattr__(self, name, None)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self).from_arrays, (self.threads, *self._arrays)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.threads == other.threads and all(
            np.array_equal(ours, theirs)
            for ours, theirs in zip(self._arrays, other._arrays)
        )

    def __hash__(self) -> int:
        return hash((self.threads, *(array.tobytes() for array in self._arrays)))

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(threads={self.threads!r}, "
            f"weights={dict(self.weights)!r})"
        )

    @property
    def weights(self) -> MappingProxyType:
        """Read-only ``(src, dst) -> weight`` mapping in edge order, built
        on first access."""
        weights = self._weights
        if weights is None:
            src, dst, weight = self._arrays
            weights = MappingProxyType(
                dict(zip(zip(src.tolist(), dst.tolist()), weight.tolist()))
            )
            object.__setattr__(self, "_weights", weights)
        return weights

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """All (source, destination, weight) triples, in edge order."""
        src, dst, weight = self._arrays
        return zip(src.tolist(), dst.tolist(), weight.tolist())

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights (the normalization constant):
        :meth:`edge_weight_sum`."""
        return self.edge_weight_sum()

    # ------------------------------------------------------------------
    # Array views (cached; the graph is frozen so they never go stale).
    # ------------------------------------------------------------------

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, weight)`` ndarrays over all edges, in edge order.

        The graph's stored representation, read-only: the gather-friendly
        view the vectorized evaluation and annealing kernels index.
        """
        return self._arrays

    def edge_weight_sum(self) -> float:
        """``float`` of the numpy sum of :meth:`edge_arrays`' weights,
        summed once per graph: :attr:`total_weight`, and the swap
        kernel's average-distance denominator."""
        cached = self._weight_sum
        if cached is None:
            cached = float(self._arrays[2].sum())
            object.__setattr__(self, "_weight_sum", cached)
        return cached

    def out_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-thread out-adjacency in CSR form.

        Returns ``(indptr, neighbors, weights)``: thread ``t``'s outgoing
        edges are ``neighbors[indptr[t]:indptr[t + 1]]`` with matching
        ``weights``, in edge order.  Built once per graph from
        :meth:`edge_arrays` (see :meth:`_rows`), so walking every
        thread's out-edges costs O(edges), not O(threads * edges).
        """
        cached = self._out_csr
        if cached is None:
            cached = self._rows(symmetric=False)
            object.__setattr__(self, "_out_csr", cached)
        return cached

    def incident_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Symmetrized per-thread adjacency in CSR form.

        Returns ``(indptr, neighbors, weights)``: the threads incident to
        edges touching thread ``t`` (either direction) are
        ``neighbors[indptr[t]:indptr[t + 1]]`` with matching ``weights``.
        Each directed edge contributes one entry to *both* endpoints'
        rows, ordered by edge index within a row — exactly the adjacency
        the swap optimizers need to price a move in two gathers.
        """
        cached = self._incident_csr
        if cached is None:
            cached = self._rows(symmetric=True)
            object.__setattr__(self, "_incident_csr", cached)
        return cached

    def _rows(self, symmetric: bool) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only CSR ``(indptr, others, weights)`` of the edges grouped
        by source thread — and, if ``symmetric``, also by destination —
        in edge order within a row (an edge's source entry first).

        A counting placement in the swap kernel
        (:func:`repro.mapping.engine.place`), O(edges); without the
        kernel, the same bytes from a stable argsort.
        """
        from repro.mapping import engine

        src, dst, weight = self.edge_arrays()
        counts = np.bincount(src, minlength=self.threads)
        if symmetric:
            counts += np.bincount(dst, minlength=self.threads)
        indptr = np.zeros(self.threads + 1, dtype=np.intp)
        np.cumsum(counts, out=indptr[1:])
        placed = engine.place(src, dst, weight, indptr, symmetric)
        if placed is None:
            owners, others, both = src, dst, weight
            if symmetric:
                # Interleave (src, dst) per edge so a stable sort keeps
                # the edge order within each row.
                owners = np.stack((src, dst), axis=1).ravel()
                others = np.stack((dst, src), axis=1).ravel()
                both = np.repeat(weight, 2)
            order = np.argsort(owners, kind="stable")
            placed = others[order], both[order]
        rows = (indptr, *placed)
        for array in rows:
            array.setflags(write=False)
        return rows

    @classmethod
    def from_edges(cls, threads: int, edges: Iterable[Edge]) -> "CommunicationGraph":
        """Unit-weight graph from an edge iterable; a repeated edge
        accumulates its weight, in first-appearance order."""
        weights = {}
        for edge in edges:
            weights[edge] = weights.get(edge, 0.0) + 1.0
        return cls(threads=threads, weights=weights)

    @classmethod
    def from_arrays(
        cls,
        threads: int,
        sources,
        destinations,
        weights=None,
    ) -> "CommunicationGraph":
        """Graph from edge endpoint arrays, without a per-edge dict.

        The large-N constructor: edge endpoints (and optional weights,
        default 1.0) are copied, validated vectorized and installed as
        the graph's :meth:`edge_arrays`, so a million-node torus
        neighbor graph costs three ndarrays instead of millions of dict
        entries and tuples.  Edges must be distinct — the dict
        constructor would have *accumulated* duplicate weights, so
        duplicates here are an error rather than a silent behavioral
        difference.
        """
        _check_threads(threads)
        src = np.array(sources, dtype=np.intp)
        dst = np.array(destinations, dtype=np.intp)
        if src.ndim != 1 or dst.ndim != 1 or src.size != dst.size:
            raise TopologyError(
                "sources and destinations must be 1-D arrays of equal length"
            )
        if weights is None:
            weight = np.ones(src.size, dtype=np.float64)
        else:
            weight = np.array(weights, dtype=np.float64)
            if weight.shape != src.shape:
                raise TopologyError(
                    f"weights shape {weight.shape} does not match "
                    f"{src.size} edges"
                )
        if src.size:
            if min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= threads:
                raise TopologyError(
                    f"edge endpoints outside thread range 0..{threads - 1}"
                )
            if np.any(src == dst):
                offender = int(src[np.argmax(src == dst)])
                raise TopologyError(
                    f"self-edge on thread {offender} is not allowed"
                )
            if not np.all(weight > 0):
                raise TopologyError("all edge weights must be positive")
            keys = np.sort(src * np.intp(threads) + dst)
            if keys.size > 1 and np.any(keys[1:] == keys[:-1]):
                raise TopologyError("duplicate edges are not allowed")
        graph = object.__new__(cls)
        graph._install(threads, src, dst, weight)
        return graph


def torus_neighbor_graph(radix: int, dimensions: int) -> CommunicationGraph:
    """The paper's synthetic application pattern (Section 3.2).

    Thread ``i`` communicates with each of its torus neighbors (reads
    every neighbor's state word each iteration), so the communication
    graph is exactly the k-ary n-cube adjacency — which is why an ideal
    mapping onto the same-shape machine needs only single-hop messages.
    """
    torus = Torus(radix=radix, dimensions=dimensions)
    count = torus.node_count
    if radix == 1:
        return CommunicationGraph(threads=count)  # one node, no neighbors
    # The adjacency as arrays, in the order of the node-major loop over
    # ``torus.neighbors(node)``: within each node [dim 0 +1, dim 0 -1,
    # dim 1 +1, ...], radix-2 rings contributing only their single
    # (coinciding) neighbor.
    coords = torus.coordinate_array()
    nodes = np.arange(count, dtype=np.intp)
    per_node = dimensions * (2 if radix > 2 else 1)
    dst = np.empty((count, per_node), dtype=np.intp)
    column = 0
    stride = 1
    for dim in range(dimensions):
        coord = coords[dim]
        dst[:, column] = np.where(
            coord == radix - 1, nodes - (radix - 1) * stride, nodes + stride
        )
        column += 1
        if radix > 2:
            dst[:, column] = np.where(
                coord == 0, nodes + (radix - 1) * stride, nodes - stride
            )
            column += 1
        stride *= radix
    return CommunicationGraph.from_arrays(
        count, np.repeat(nodes, per_node), dst.reshape(-1)
    )


def ring_graph(threads: int) -> CommunicationGraph:
    """Threads arranged in a bidirectional ring (a 1-D torus pattern)."""
    if threads < 2:
        raise TopologyError(f"a ring needs >= 2 threads, got {threads!r}")
    edges = []
    for thread in range(threads):
        succ = (thread + 1) % threads
        edges.append((thread, succ))
        edges.append((succ, thread))
    return CommunicationGraph.from_edges(threads, edges)


def all_to_all_graph(threads: int) -> CommunicationGraph:
    """Every distinct pair communicates equally — zero physical locality.

    Section 1.1's definition: "an application in which all distinct pairs
    of threads communicate equally has no physical locality."
    """
    if threads < 2:
        raise TopologyError(f"all-to-all needs >= 2 threads, got {threads!r}")
    edges = [
        (src, dst)
        for src in range(threads)
        for dst in range(threads)
        if src != dst
    ]
    return CommunicationGraph.from_edges(threads, edges)


def nearest_neighbor_grid_graph(rows: int, cols: int) -> CommunicationGraph:
    """Non-wrapping 2-D grid neighbors (stencil-style applications)."""
    if rows < 1 or cols < 1:
        raise TopologyError(f"grid must be >= 1x1, got {rows}x{cols}")
    edges = []
    for row in range(rows):
        for col in range(cols):
            thread = row * cols + col
            if col + 1 < cols:
                right = thread + 1
                edges.append((thread, right))
                edges.append((right, thread))
            if row + 1 < rows:
                down = thread + cols
                edges.append((thread, down))
                edges.append((down, thread))
    return CommunicationGraph.from_edges(rows * cols, edges)


def butterfly_exchange_graph(threads: int) -> CommunicationGraph:
    """FFT butterfly pattern: thread ``i`` exchanges with ``i XOR 2^s``.

    All ``log2(threads)`` stages are overlaid into one weighted graph
    (each thread talks to every bit-flip partner equally) — the
    communication structure of an in-place FFT or hypercube algorithm.
    ``threads`` must be a power of two with at least two threads.
    """
    bits = threads.bit_length() - 1
    if threads < 2 or 2**bits != threads:
        raise TopologyError(
            f"butterfly exchange needs a power-of-two thread count >= 2, "
            f"got {threads}"
        )
    edges = []
    for thread in range(threads):
        for stage in range(bits):
            edges.append((thread, thread ^ (1 << stage)))
    return CommunicationGraph.from_edges(threads, edges)


def star_graph(threads: int) -> CommunicationGraph:
    """Master-worker pattern: every thread exchanges with thread 0.

    The convergecast structure behind reductions, work queues, and
    hot locks; by construction it has no exploitable physical locality
    beyond placing workers near the center.
    """
    if threads < 2:
        raise TopologyError(f"a star needs >= 2 threads, got {threads!r}")
    edges = []
    for thread in range(1, threads):
        edges.append((thread, 0))
        edges.append((0, thread))
    return CommunicationGraph.from_edges(threads, edges)


def nine_point_stencil_graph(rows: int, cols: int) -> CommunicationGraph:
    """Non-wrapping 2-D grid with diagonal neighbors (9-point stencil).

    The communication pattern of higher-order finite-difference and
    image-processing kernels; denser than the 5-point stencil but still
    strongly local.
    """
    if rows < 1 or cols < 1:
        raise TopologyError(f"grid must be >= 1x1, got {rows}x{cols}")
    edges = []
    for row in range(rows):
        for col in range(cols):
            thread = row * cols + col
            for d_row in (-1, 0, 1):
                for d_col in (-1, 0, 1):
                    if d_row == 0 and d_col == 0:
                        continue
                    n_row, n_col = row + d_row, col + d_col
                    if 0 <= n_row < rows and 0 <= n_col < cols:
                        edges.append((thread, n_row * cols + n_col))
    return CommunicationGraph.from_edges(rows * cols, edges)
