"""On-demand compiled C libraries, loaded through cffi in ABI mode.

A :class:`Library` compiles one C source with the system C compiler the
first time it is needed, caches the shared object under the user cache
directory (keyed by source hash), and opens it with :mod:`cffi` — no
setuptools build step, no Python.h dependency.  The compiled batch
core (:mod:`repro.sim.batchcore`) and the swap-pricing kernel
(:mod:`repro.mapping.engine`) are both built this way.  If cffi or a
compiler is missing, or the build fails, :meth:`Library.load` returns
``None`` and remembers why; each caller falls back loudly to its own
Python oracle.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

from repro.errors import ReproError

__all__ = ["Library"]


def _cache_dir(name: str) -> Path:
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path.home() / ".cache"
    return base / "repro" / name


def _compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build(source: Path) -> Path:
    """Compile ``source`` into the cache; return the shared-object path."""
    text = source.read_bytes()
    tag = hashlib.sha256(text).hexdigest()[:16]
    cache = _cache_dir(source.stem.lstrip("_"))
    so_path = cache / f"{source.stem}-{tag}.so"
    if so_path.exists():
        return so_path
    compiler = _compiler()
    if compiler is None:
        raise ReproError(f"no C compiler found for {source.name}")
    cache.mkdir(parents=True, exist_ok=True)
    # Build into a temp name then rename: concurrent builders race
    # benignly to an identical artifact.
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, "-O2", "-fPIC", "-shared", "-o", tmp, str(source), "-lm"],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise ReproError(
                f"{source.name} compilation failed: {proc.stderr[:500]}"
            )
        os.replace(tmp, so_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return so_path


class Library:
    """One C source, compiled and opened on first :meth:`load`.

    ``cdef`` declares what Python may call.  The shared object is cached
    in ``repro/<name>`` under the cache directory, ``name`` being the
    source's stem without its leading underscore (``_batchcore.c`` ->
    ``batchcore``).
    """

    def __init__(self, source: Path, cdef: str):
        self.source = source
        self.cdef = cdef
        self._loaded = None
        #: Why :meth:`load` returned ``None``, or ``None`` if it has not.
        self.failure: Optional[str] = None

    def load(self):
        """Return ``(ffi, lib)``, or ``None``.

        The first failure (missing cffi, missing compiler, build error)
        is remembered in :attr:`failure`, so later calls stay cheap.
        """
        if self._loaded is not None:
            return self._loaded
        if self.failure is not None:
            return None
        try:
            from cffi import FFI
        except ImportError:
            self.failure = "cffi is not installed"
            return None
        try:
            so_path = _build(self.source)
            ffi = FFI()
            ffi.cdef(self.cdef)
            lib = ffi.dlopen(str(so_path))
        except Exception as exc:  # noqa: BLE001 - any failure means fallback
            self.failure = str(exc)
            return None
        self._loaded = (ffi, lib)
        return self._loaded
