"""Compiled swap pricing shared by the mapping optimizers.

The hill climber, the annealer and the multi-chain annealer all iterate
the same move: *swap the processors of two threads and price the change
in weighted hop-sum*.  :meth:`SwapEngine.swap_delta` is the one pricer
they share, and :meth:`SwapEngine.objective` prices a whole assignment.
Both are one call into a small C kernel (``_swapcore.c``, compiled on
first use by :class:`repro.native.Library`) that reads the graph's
:meth:`~CommunicationGraph.incident_csr` and
:meth:`~CommunicationGraph.edge_arrays` and the chain's ``position``
array in place, and computes torus distances from the node ids' digits,
so it needs no distance table at any machine size.  Only pricing is
compiled: the optimizers' loops and random streams stay in Python.

Edges *between* the two swapped threads are invariant under the swap
(both endpoints move) and are skipped, mirroring the loop
implementation's ``neighbor == other`` skip.  For integer edge weights
every sum is exact, so deltas — and therefore accept/reject decisions —
are bit-identical to the per-edge loops in :mod:`repro.mapping.reference`.

If the kernel cannot load (no cffi, no compiler), :func:`kernel_available`
says so loudly — a ``mapping.fallback`` counter and a
:class:`MappingFallbackWarning` — and the optimizers run those loops
instead.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import MappingError
from repro.mapping.base import Mapping
from repro.native import Library
from repro.topology.graphs import CommunicationGraph
from repro.topology.torus import Torus

__all__ = ["MappingFallbackWarning", "SwapEngine", "kernel_available"]

CDEF = """
typedef struct {
    int64_t dims;
    int64_t radix;
    const int64_t *indptr;
    const int64_t *neighbors;
    const double *weights;
    int64_t edges;
    const int64_t *src;
    const int64_t *dst;
    const double *edge_weights;
    const int64_t *position;
} SwapKernel;
double sw_delta(const SwapKernel *k, int64_t a, int64_t b);
double sw_objective(const SwapKernel *k);
"""

_KERNEL = Library(Path(__file__).with_name("_swapcore.c"), CDEF)


class MappingFallbackWarning(RuntimeWarning):
    """A mapping optimizer ran the loop reference, not the compiled kernel."""


def load():
    """Return ``(ffi, lib)`` for the compiled swap kernel, or ``None``."""
    return _KERNEL.load()


def kernel_available() -> bool:
    """Whether the swap kernel loads; if not, record the fallback loudly.

    Each fallback bumps the ``mapping.fallback`` counter; the warning's
    text is stable per process, so Python's default filter shows it once.
    """
    if load() is not None:
        return True
    obs.REGISTRY.counter(
        "mapping.fallback",
        help="mapping optimizations run on the loop reference",
    ).inc()
    warnings.warn(
        "compiled swap kernel unavailable "
        f"({_KERNEL.failure or 'not built'}); running the loop reference",
        MappingFallbackWarning,
        stacklevel=3,
    )
    return False


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


def _contiguous(array: np.ndarray, kind: str) -> np.ndarray:
    """``array`` as the C type ``kind`` reads (a no-op copy-free view
    for the graph's own intp/float64 arrays on 64-bit hosts)."""
    dtype = np.int64 if kind == "int64_t[]" else np.float64
    return np.ascontiguousarray(array, dtype=dtype)


class SwapEngine:
    """The swap kernel bound to one (graph, torus) pair.

    ``position`` arrays passed to :meth:`swap_delta` and
    :meth:`objective` are one chain's ``(threads,)`` assignment as
    C-contiguous int64; the kernel reads them in place, so swapping two
    entries between calls needs no rebinding.  An array is bound on its
    first use and stays bound until another one is passed.
    """

    def __init__(self, graph: CommunicationGraph, torus: Torus):
        loaded = load()
        if loaded is None:
            raise MappingError(
                f"the compiled swap kernel is unavailable: {_KERNEL.failure}"
            )
        self.graph = graph
        self.torus = torus
        self.total_weight = graph.total_weight
        self._threads = graph.threads
        ffi, lib = loaded
        self._ffi = ffi
        self._delta = lib.sw_delta
        self._objective = lib.sw_objective
        indptr, neighbors, weights = graph.incident_csr()
        src, dst, edge_weights = graph.edge_arrays()
        self._weight_sum = float(edge_weights.sum())
        kernel = ffi.new("SwapKernel *")
        kernel.dims = torus.dimensions
        kernel.radix = torus.radix
        kernel.edges = src.size
        # The kernel holds raw pointers: keep every buffer alive here.
        self._buffers = []
        for field, array, kind in (
            ("indptr", indptr, "int64_t[]"),
            ("neighbors", neighbors, "int64_t[]"),
            ("weights", weights, "double[]"),
            ("src", src, "int64_t[]"),
            ("dst", dst, "int64_t[]"),
            ("edge_weights", edge_weights, "double[]"),
        ):
            array = _contiguous(array, kind)
            buffer = ffi.from_buffer(kind, array)
            self._buffers.append((array, buffer))
            setattr(kernel, field, buffer)
        self._kernel = kernel
        self._position: Optional[np.ndarray] = None
        self._position_buffer = None

    def _bind(self, position: np.ndarray) -> None:
        if (
            position.dtype != np.int64
            or position.shape != (self._threads,)
            or not position.flags.c_contiguous
        ):
            raise MappingError(
                "position must be a C-contiguous int64 array of "
                f"{self._threads} entries"
            )
        self._position_buffer = self._ffi.from_buffer("int64_t[]", position)
        self._kernel.position = self._position_buffer
        self._position = position

    def objective(self, position: np.ndarray) -> Tuple[float, float]:
        """``(weighted hop-sum, average distance)`` of one assignment.

        The average is the hop-sum over the edge weights' numpy sum, the
        expression :func:`repro.mapping.evaluate.average_distance` uses.
        """
        if position is not self._position:
            self._bind(position)
        total = self._objective(self._kernel)
        return total, total / self._weight_sum

    def swap_delta(self, position: np.ndarray, thread_a: int, thread_b: int) -> float:
        """Change in weighted hop-sum if ``thread_a`` and ``thread_b``
        swap processors; ``position`` is not modified."""
        if position is not self._position:
            self._bind(position)
        if not (0 <= thread_a < self._threads and 0 <= thread_b < self._threads):
            raise MappingError(
                f"threads ({thread_a!r}, {thread_b!r}) outside 0..{self._threads - 1}"
            )
        return self._delta(self._kernel, thread_a, thread_b)
