"""The compiled swap search shared by the mapping optimizers.

The hill climber, the annealer and the multi-chain annealer all iterate
the same move: *draw two threads, price swapping their processors, and
keep the swap or not*.  :meth:`SwapEngine.run` runs a whole chain of
such moves — the draws, the pricing, the accept rule and, for annealing,
the best-state journal — as one call into a small C kernel
(``_swapcore.c``, compiled on first use by :class:`repro.native.Library`).
:meth:`SwapEngine.swap_delta` prices one swap and
:meth:`SwapEngine.objective` a whole assignment.  The kernel reads the
graph's :meth:`~CommunicationGraph.incident_csr` and
:meth:`~CommunicationGraph.edge_arrays` and the chain's ``position``
array in place, and computes torus distances from the node ids' digits,
so it needs no distance table at any machine size.

The draws are the ones Python would make.  :func:`twister` hands the
kernel a :class:`random.Random`'s Mersenne Twister state (``getstate()``:
624 words and an index), and the kernel consumes it exactly as
``randrange(n)`` (one 32-bit word per try, so ``n`` must stay below
:data:`DRAW_LIMIT`), ``random()`` and ``shuffle`` do; the accept rule
uses libm's ``exp``, as :func:`math.exp` does.  :func:`shuffled` is that
``shuffle`` over ``range(count)``, for :func:`repro.mapping.strategies.random_mapping`.

Edges *between* the two swapped threads are invariant under the swap
(both endpoints move) and are skipped, mirroring the loop
implementation's ``neighbor == other`` skip.  For integer edge weights
every sum is exact, so deltas — and therefore accept/reject decisions,
counts and best states — are bit-identical to the per-edge loops in
:mod:`repro.mapping.reference`.

If the kernel cannot load (no cffi, no compiler), :func:`kernel_available`
says so loudly — a ``mapping.fallback`` counter and a
:class:`MappingFallbackWarning` — and the optimizers run those loops
instead.
"""

from __future__ import annotations

import random
import struct
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
    int64_t threads;
    const int64_t *indptr;
    const int64_t *neighbors;
    const double *weights;
    int64_t edges;
    const int64_t *src;
    const int64_t *dst;
    const double *edge_weights;
    int64_t *position;
} SwapKernel;
typedef struct {
    uint32_t state[624];
    int64_t index;
} Twister;
typedef struct {
    int64_t steps;
    double temperature;
    double cooling;
    double sense;
    double current;
    double best;
    int64_t accepted;
    int64_t attempted;
} Chain;
int64_t sw_randbelow(Twister *t, int64_t n);
double sw_random(Twister *t);
void sw_shuffle(Twister *t, int64_t *values, int64_t count);
double sw_delta(const SwapKernel *k, int64_t a, int64_t b);
int sw_objective(const SwapKernel *k, double *total);
int sw_chain(const SwapKernel *k, Twister *t, Chain *c);
void sw_place(const int64_t *src, const int64_t *dst, const double *weights,
              int64_t count, int symmetric, int64_t *next,
              int64_t *placed_others, double *placed_weights);
"""

_KERNEL = Library(Path(__file__).with_name("_swapcore.c"), CDEF)

#: The kernel draws ``randrange(n)`` from one 32-bit word, so ``n`` must
#: stay below this (CPython switches to multi-word draws above it).
DRAW_LIMIT = 1 << 32


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


def _kernel():
    loaded = load()
    if loaded is None:
        raise MappingError(
            f"the compiled swap kernel is unavailable: {_KERNEL.failure}"
        )
    return loaded


def check_draws(n: int) -> None:
    """Raise :class:`MappingError` unless the kernel can draw
    ``randrange(n)`` as Python does: from one 32-bit word."""
    if n >= DRAW_LIMIT:
        raise MappingError(
            f"randrange({n}) needs more than 32 random bits; the compiled "
            f"kernel draws below {DRAW_LIMIT} only"
        )


def twister(generator: random.Random):
    """A kernel ``Twister *`` holding ``generator``'s current state; the
    kernel's draws from it are the ones ``generator`` would make next."""
    ffi, _ = _kernel()
    _, internal, _ = generator.getstate()
    stream = ffi.new("Twister *", {"index": internal[-1]})
    # One copy of the 624 words: a per-word cffi conversion costs more
    # than a 64-node shuffle.
    ffi.memmove(stream.state, struct.pack("=624I", *internal[:-1]), 4 * 624)
    return stream


def shuffled(count: int, seed) -> np.ndarray:
    """``range(count)`` as ``random.Random(seed).shuffle`` leaves it,
    shuffled by the kernel, as an int64 array."""
    check_draws(count)
    ffi, lib = _kernel()
    values = np.arange(count, dtype=np.int64)
    lib.sw_shuffle(
        twister(random.Random(seed)), ffi.from_buffer("int64_t[]", values), count
    )
    return values


def place(
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray,
    indptr: np.ndarray,
    symmetric: bool,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Group edges into CSR rows by counting placement, in edge order
    within each row: edge ``e`` lands in row ``src[e]`` as
    ``(dst[e], weights[e])`` and, if ``symmetric``, then in row
    ``dst[e]`` as ``(src[e], weights[e])``.  ``indptr`` holds the rows'
    bounds.  Returns ``(others, weights)`` in row order, or ``None`` if
    the kernel cannot load."""
    loaded = load()
    if loaded is None:
        return None
    ffi, lib = loaded
    src = _contiguous(src, "int64_t[]")
    dst = _contiguous(dst, "int64_t[]")
    weights = _contiguous(weights, "double[]")
    cursor = np.array(indptr[:-1], dtype=np.int64)
    placed_others = np.empty(int(indptr[-1]), dtype=np.int64)
    placed_weights = np.empty(int(indptr[-1]), dtype=np.float64)
    lib.sw_place(
        ffi.from_buffer("int64_t[]", src),
        ffi.from_buffer("int64_t[]", dst),
        ffi.from_buffer("double[]", weights),
        src.size,
        symmetric,
        ffi.from_buffer("int64_t[]", cursor),
        ffi.from_buffer("int64_t[]", placed_others),
        ffi.from_buffer("double[]", placed_weights),
    )
    return placed_others, placed_weights


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

    ``position`` arrays passed to :meth:`run`, :meth:`swap_delta` and
    :meth:`objective` are one chain's ``(threads,)`` assignment as
    C-contiguous int64; the kernel reads them in place, so swapping two
    entries between calls needs no rebinding.  An array is bound on its
    first use and stays bound until another one is passed.
    """

    def __init__(self, graph: CommunicationGraph, torus: Torus):
        ffi, lib = _kernel()
        check_draws(graph.threads)
        self.graph = graph
        self.torus = torus
        self.total_weight = graph.total_weight
        self._threads = graph.threads
        self._ffi = ffi
        self._lib = lib
        indptr, neighbors, weights = graph.incident_csr()
        src, dst, edge_weights = graph.edge_arrays()
        self._weight_sum = float(edge_weights.sum())
        kernel = ffi.new("SwapKernel *")
        kernel.dims = torus.dimensions
        kernel.radix = torus.radix
        kernel.threads = graph.threads
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
        if position is self._position:
            return
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
        self._bind(position)
        total = self._ffi.new("double *")
        if self._lib.sw_objective(self._kernel, total) != 0:
            raise MemoryError("swap kernel: no memory for the objective")
        return total[0], total[0] / self._weight_sum

    def swap_delta(self, position: np.ndarray, thread_a: int, thread_b: int) -> float:
        """Change in weighted hop-sum if ``thread_a`` and ``thread_b``
        swap processors; ``position`` is not modified."""
        self._bind(position)
        if not (0 <= thread_a < self._threads and 0 <= thread_b < self._threads):
            raise MappingError(
                f"threads ({thread_a!r}, {thread_b!r}) outside 0..{self._threads - 1}"
            )
        return self._lib.sw_delta(self._kernel, thread_a, thread_b)

    def run(
        self,
        position: np.ndarray,
        seed,
        steps: int,
        temperature: float = 0.0,
        cooling: float = 0.0,
        maximize: bool = False,
    ) -> Tuple[float, float, int, int]:
        """Run one chain of ``steps`` draws on ``position``, in place.

        The draws come from ``random.Random(seed)``: per step two
        ``randrange(threads)`` calls (a step that draws one thread twice
        is skipped), then, when the temperature is above 1e-12 and the
        swap does not improve, one ``random()`` against
        ``exp(-delta / temperature)``.  The temperature is multiplied by
        ``cooling`` before every step.

        A positive ``temperature`` anneals and leaves ``position`` at the
        best state seen; ``temperature=0`` hill-climbs (strict
        improvements only) and leaves it where the climb stops.
        ``maximize`` climbs toward larger hop-sums.

        Returns ``(initial average distance, hop-sum of the state left
        in position, accepted swaps, attempted swaps)``.
        """
        if not position.flags.writeable:
            raise MappingError("position must be writable")
        start, initial_distance = self.objective(position)
        sense = -1.0 if maximize else 1.0
        chain = self._ffi.new(
            "Chain *",
            {
                "steps": steps,
                "temperature": temperature,
                "cooling": cooling,
                "sense": sense,
                "current": sense * start,
            },
        )
        stream = twister(random.Random(seed))
        if self._lib.sw_chain(self._kernel, stream, chain) != 0:
            raise MemoryError("swap kernel: no memory for the chain's journal")
        end = chain.best if temperature > 0 else chain.current
        return initial_distance, sense * end, chain.accepted, chain.attempted
