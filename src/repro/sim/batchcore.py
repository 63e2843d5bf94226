"""On-demand compiled C core for the batched replication engine.

Compiles :mod:`repro.sim` ``_batchcore.c`` with the system C compiler
the first time it is needed (cached under the user cache directory,
keyed by source hash) and loads it through :mod:`cffi` in ABI mode —
no setuptools build step, no Python.h dependency.  If a compiler or
cffi is unavailable, ``load()`` returns ``None`` and
:func:`repro.sim.batch.run_batch` runs its batches as serial machines,
loudly; the serial ``Processor``, ``CoherenceController`` and
``CutThroughFabric`` are the behavioral spec this core ports.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

from repro.errors import ProtocolError, SimulationError

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

_cached = None
_failure: Optional[str] = None


def fits(dimensions: int, radix: int) -> bool:
    """Whether ``bc_create`` accepts a torus of this shape, by the same
    limits it checks: at most eight dimensions, and fewer than 2**20
    nodes (the node-id field of its packed heap keys)."""
    return dimensions <= 8 and radix**dimensions < 1 << 20


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path.home() / ".cache"
    return base / "repro" / "batchcore"


def _compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build(source: Path) -> Path:
    """Compile the core into the cache; return the shared-object path."""
    text = source.read_bytes()
    tag = hashlib.sha256(text).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"_batchcore-{tag}.so"
    if so_path.exists():
        return so_path
    compiler = _compiler()
    if compiler is None:
        raise SimulationError("no C compiler found for the batch core")
    cache.mkdir(parents=True, exist_ok=True)
    # Build into a temp name then rename: concurrent builders race
    # benignly to an identical artifact.
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, "-O2", "-fPIC", "-shared", "-o", tmp, str(source)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise SimulationError(
                f"batch core compilation failed: {proc.stderr[:500]}"
            )
        os.replace(tmp, so_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return so_path


def load():
    """Return ``(ffi, lib)`` for the compiled core, or ``None``.

    The first failure (missing cffi, missing compiler, build error) is
    remembered so later calls stay cheap; :func:`load_failure` returns
    the reason.
    """
    global _cached, _failure
    if _cached is not None:
        return _cached
    if _failure is not None:
        return None
    try:
        from cffi import FFI
    except ImportError:
        _failure = "cffi is not installed"
        return None
    try:
        so_path = _build(_SOURCE)
        ffi = FFI()
        ffi.cdef(CDEF)
        lib = ffi.dlopen(str(so_path))
    except Exception as exc:  # noqa: BLE001 - any failure means fallback
        _failure = str(exc)
        return None
    _cached = (ffi, lib)
    return _cached


def load_failure() -> Optional[str]:
    """Why :func:`load` returned ``None``, or ``None`` if it has not."""
    return _failure


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
