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

Graphs come in two physical layouts sharing one interface: the dict of
``(src, dst) -> weight`` entries that small graphs build edge by edge,
and the array-backed layout (:meth:`CommunicationGraph.from_arrays`)
that skips the per-edge dict entirely — the representation million-node
tori need, where the 2 * n * N edge dict alone would dwarf the arrays.
Iteration helpers (``edges``, ``out_neighbors``, ``total_weight``) are
layout-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.topology.torus import DISTANCE_TABLE_MAX_NODES, Torus

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


@dataclass(frozen=True)
class CommunicationGraph:
    """Weighted directed communication pattern over ``threads`` threads."""

    threads: int
    weights: Dict[Edge, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise TopologyError(f"threads must be >= 1, got {self.threads!r}")
        for (src, dst), weight in self.weights.items():
            if not 0 <= src < self.threads or not 0 <= dst < self.threads:
                raise TopologyError(
                    f"edge ({src}, {dst}) outside thread range 0..{self.threads - 1}"
                )
            if src == dst:
                raise TopologyError(f"self-edge on thread {src} is not allowed")
            if not weight > 0:
                raise TopologyError(
                    f"edge ({src}, {dst}) must have positive weight, got {weight!r}"
                )

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """All (source, destination, weight) triples, in edge order."""
        if self.weights:
            for (src, dst), weight in self.weights.items():
                yield src, dst, weight
            return
        src, dst, weight = self.edge_arrays()
        yield from zip(src.tolist(), dst.tolist(), weight.tolist())

    @property
    def edge_count(self) -> int:
        """Number of directed edges."""
        if self.weights:
            return len(self.weights)
        return self.edge_arrays()[0].size

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights (the normalization constant)."""
        if self.weights:
            return sum(self.weights.values())
        return float(self.edge_arrays()[2].sum())

    def out_neighbors(self, thread: int) -> Iterator[Tuple[int, float]]:
        """Destinations and weights of a thread's outgoing edges, in edge
        order: one row of :meth:`out_csr`."""
        if not 0 <= thread < self.threads:
            raise TopologyError(
                f"thread {thread!r} outside 0..{self.threads - 1}"
            )
        indptr, neighbors, weights = self.out_csr()
        row = slice(indptr[thread], indptr[thread + 1])
        return zip(neighbors[row].tolist(), weights[row].tolist())

    def degree_out(self, thread: int) -> int:
        """Number of distinct destinations a thread sends to."""
        return sum(1 for _ in self.out_neighbors(thread))

    # ------------------------------------------------------------------
    # Array views (cached; the graph is frozen so they never go stale).
    # ------------------------------------------------------------------

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, weight)`` ndarrays over all edges, in edge order.

        Edge order is the (deterministic) insertion order of ``weights``;
        the arrays are read-only and built once per graph instance.  This
        is the gather-friendly view the vectorized evaluation and
        annealing kernels index the torus distance table with.
        """
        cached = self.__dict__.get("_edge_arrays")
        if cached is None:
            count = len(self.weights)
            src = np.empty(count, dtype=np.intp)
            dst = np.empty(count, dtype=np.intp)
            weight = np.empty(count, dtype=np.float64)
            for index, ((s, d), w) in enumerate(self.weights.items()):
                src[index] = s
                dst[index] = d
                weight[index] = w
            for array in (src, dst, weight):
                array.setflags(write=False)
            cached = (src, dst, weight)
            object.__setattr__(self, "_edge_arrays", cached)
        return cached

    def out_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-thread out-adjacency in CSR form.

        Returns ``(indptr, neighbors, weights)``: thread ``t``'s outgoing
        edges are ``neighbors[indptr[t]:indptr[t + 1]]`` with matching
        ``weights``, in edge order.  Built once per graph from
        :meth:`edge_arrays` (see :meth:`_rows`), so walking every
        thread's out-edges costs O(edges), not O(threads * edges).
        """
        cached = self.__dict__.get("_out_csr")
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
        cached = self.__dict__.get("_incident_csr")
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
    def from_edges(
        cls, threads: int, edges: Iterable[Edge], weight: float = 1.0
    ) -> "CommunicationGraph":
        """Uniformly weighted graph from an edge iterable."""
        weights = {}
        for edge in edges:
            weights[edge] = weights.get(edge, 0.0) + weight
        return cls(threads=threads, weights=weights)

    @classmethod
    def from_arrays(
        cls,
        threads: int,
        sources,
        destinations,
        weights=None,
    ) -> "CommunicationGraph":
        """Array-backed graph that never materializes the edge dict.

        The large-N constructor: edge endpoints (and optional weights,
        default 1.0) are validated vectorized and installed directly as
        the graph's :meth:`edge_arrays` view, so a million-node torus
        neighbor graph costs three ndarrays instead of millions of dict
        entries and tuples.  Edges must be distinct — the dict layout
        would have *accumulated* duplicate weights, so duplicates here
        are an error rather than a silent behavioral difference.
        """
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
        graph = cls(threads=threads, weights={})
        for array in (src, dst, weight):
            array.setflags(write=False)
        object.__setattr__(graph, "_edge_arrays", (src, dst, weight))
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
    if count <= DISTANCE_TABLE_MAX_NODES:
        edges = []
        for node in torus.nodes():
            for neighbor in torus.neighbors(node):
                edges.append((node, neighbor))
        return CommunicationGraph.from_edges(count, edges)
    # Large tori skip the per-edge dict: build the adjacency as arrays in
    # exactly the order the loop above would have produced — node-major,
    # within each node [dim 0 +1, dim 0 -1, dim 1 +1, ...], radix-2 rings
    # contributing only their single (coinciding) neighbor.
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


def ring_graph(threads: int, bidirectional: bool = True) -> CommunicationGraph:
    """Threads arranged in a ring (a 1-D torus pattern)."""
    if threads < 2:
        raise TopologyError(f"a ring needs >= 2 threads, got {threads!r}")
    edges = []
    for thread in range(threads):
        succ = (thread + 1) % threads
        if succ != thread:
            edges.append((thread, succ))
            if bidirectional:
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


def star_graph(threads: int, center: int = 0) -> CommunicationGraph:
    """Master-worker pattern: every thread exchanges with one center.

    The convergecast structure behind reductions, work queues, and
    hot locks; by construction it has no exploitable physical locality
    beyond placing workers near the center.
    """
    if threads < 2:
        raise TopologyError(f"a star needs >= 2 threads, got {threads!r}")
    if not 0 <= center < threads:
        raise TopologyError(
            f"center {center!r} outside 0..{threads - 1}"
        )
    edges = []
    for thread in range(threads):
        if thread != center:
            edges.append((thread, center))
            edges.append((center, thread))
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
