"""On-demand compiled C core for the batched replication engine.

Compiles :mod:`repro.sim` ``_batchcore.c`` the first time it is needed
and loads it through :mod:`cffi` in ABI mode (:class:`repro.native.Library`,
cached under the user cache directory in ``repro/batchcore``).  If a
compiler or cffi is unavailable, ``load()`` returns ``None`` and
:func:`repro.sim.batch.run_batch` runs its batches as serial machines,
loudly; the serial ``Processor``, ``CoherenceController`` and
``CutThroughFabric`` are the behavioral spec this core ports.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.errors import ProtocolError, SimulationError
from repro.native import Library

__all__ = ["fits", "load", "load_failure", "raise_error", "CDEF"]

_SOURCE = Path(__file__).with_name("_batchcore.c")

CDEF = """
typedef struct Batch Batch;
Batch *bc_create(int R, int N, int dims, int radix, int capacity,
                 int req_cost, int recv_cost, int send_cost, int mem_cost,
                 int contexts, int speedup, int hit_cycles,
                 int switch_cycles);
void bc_destroy(Batch *b);
int bc_add_blocks(Batch *b, int n, const int *homes);
int bc_set_programs(Batch *b, const int *records, int ntable,
                    const int *table);
void bc_seed(Batch *b, int r, const unsigned long long *states);
long long bc_advance(Batch *b, int r, long long stop);
int bc_comp_count(Batch *b, int r);
void bc_start_measuring(Batch *b, int r);
void bc_get_counters(Batch *b, int r, long long *out_i, double *out_d);
long long bc_link_flits(Batch *b, int r);
int bc_errcode(Batch *b, int r);
const char *bc_errmsg(Batch *b, int r);
"""

_CORE = Library(_SOURCE, CDEF)


def fits(dimensions: int, radix: int) -> bool:
    """Whether ``bc_create`` accepts a torus of this shape, by the same
    limits it checks: at most eight dimensions, and fewer than 2**20
    nodes (the node-id field of its packed heap keys)."""
    return dimensions <= 8 and radix**dimensions < 1 << 20


def load():
    """Return ``(ffi, lib)`` for the compiled core, or ``None``.

    The first failure (missing cffi, missing compiler, build error) is
    remembered so later calls stay cheap; :func:`load_failure` returns
    the reason.
    """
    return _CORE.load()


def load_failure() -> Optional[str]:
    """Why :func:`load` returned ``None``, or ``None`` if it has not."""
    return _CORE.failure


def raise_error(ffi, lib, batch, rep: int) -> None:
    """Re-raise replication ``rep``'s core-side error flag as the
    matching Python error, naming the replication."""
    code = lib.bc_errcode(batch, rep)
    if not code:
        return
    detail = ffi.string(lib.bc_errmsg(batch, rep)).decode()
    message = f"replication {rep}: {detail}"
    if code == 2:
        raise ProtocolError(message)
    raise SimulationError(message)
