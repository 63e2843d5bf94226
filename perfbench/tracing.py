"""Span recording for the traced benchmark run.

The traced run wraps public functions and methods of ``repro`` from
outside (nothing in ``src/`` knows it is being traced).  Each wrapped
call records one span — name, start, end, parent span, pass id — into
flat in-memory arrays.  Whenever the outermost span closes and the
buffer holds ``FLUSH_AT`` spans, and at the end of every pass, the
buffered spans are reduced to per-name call counts, total time and self
time (duration minus the time covered by direct child spans).  Spans of
traced passes (pass id >= 0) are kept for writing out at exit, whole
passes at a time, while the kept total stays within ``KEEP_SPANS``; a
pass that would exceed it is dropped whole and counted in
``dropped_passes``/``dropped_spans``.  Setup spans (pass id -1) are
aggregated but never kept.

Wrapping costs roughly a microsecond per call, so timings from a traced
pass are only used for the per-layer ledger; end-to-end metrics come
from untraced passes.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

import numpy as np

__all__ = ["SpanRecorder", "Patcher", "CoreLibProxy", "self_times"]

#: Buffered spans that trigger a reduction once the outermost span closes.
FLUSH_AT = 200_000
#: Most spans kept for the written file (40 bytes each in memory).  One
#: ``validation`` pass records about 1.3 million.
KEEP_SPANS = 1_500_000
#: Package whose loaded modules :meth:`Patcher.function` rebinds names in.
PACKAGE = "repro"


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Self time of each span: its duration minus its direct children's.

    ``parent[i]`` is the index of span ``i``'s parent, or -1 for a root.
    Spans recorded by one thread nest properly, so each child lies
    inside its parent and the subtraction never double-counts.
    """
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(duration, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent],
        weights=duration[has_parent],
        minlength=duration.size,
    )
    return duration - covered.astype(np.int64)


class SpanRecorder:
    """In-memory span buffer with per-pass reduction."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("q")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._pass = array("q")
        self._stack: List[int] = []
        self.pass_id = -1
        self._calls = np.zeros(0, dtype=np.int64)
        self._total = np.zeros(0, dtype=np.int64)
        self._self = np.zeros(0, dtype=np.int64)
        self._root_ns = 0
        self.counters: Dict[str, int] = {}
        self._kept: List[Tuple[np.ndarray, ...]] = []
        self._kept_count = 0
        # The current pass's spans, kept only if the whole pass fits.
        self._pending: List[Tuple[np.ndarray, ...]] = []
        self._pass_spans = 0
        self.dropped_passes = 0
        self.dropped_spans = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so every call records a ``name`` span."""
        name_id = self._name_id(name)
        stack = self._stack
        names, starts, ends = self._name, self._start, self._end
        parents, passes = self._parent, self._pass
        clock = time.perf_counter_ns
        recorder = self

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            passes.append(recorder.pass_id)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                if not stack and len(starts) >= FLUSH_AT:
                    recorder.flush()

        return traced

    def count(self, name: str, amount: int) -> None:
        """Add ``amount`` to a per-pass event counter."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        size = len(self.names)
        self._calls = np.zeros(size, dtype=np.int64)
        self._total = np.zeros(size, dtype=np.int64)
        self._self = np.zeros(size, dtype=np.int64)
        self._root_ns = 0
        self.counters = {}
        self._pending = []
        self._pass_spans = 0

    def flush(self) -> None:
        """Reduce the buffered (closed) spans into the pass aggregates."""
        if self._stack:
            raise RuntimeError("flush with open spans")
        count = len(self._start)
        if not count:
            return
        name = np.frombuffer(self._name, dtype=np.int64).copy()
        start = np.frombuffer(self._start, dtype=np.int64).copy()
        end = np.frombuffer(self._end, dtype=np.int64).copy()
        parent = np.frombuffer(self._parent, dtype=np.int64).copy()
        pass_ids = np.frombuffer(self._pass, dtype=np.int64).copy()
        for buffer in (self._name, self._start, self._end, self._parent, self._pass):
            del buffer[:]
        duration = end - start
        own = self_times(parent, duration)
        size = len(self.names)
        if self._calls.size < size:
            grow = size - self._calls.size
            pad = np.zeros(grow, dtype=np.int64)
            self._calls = np.concatenate([self._calls, pad])
            self._total = np.concatenate([self._total, pad])
            self._self = np.concatenate([self._self, pad])
        self._calls += np.bincount(name, minlength=size)
        self._total += np.bincount(name, weights=duration, minlength=size).astype(np.int64)
        self._self += np.bincount(name, weights=own, minlength=size).astype(np.int64)
        self._root_ns += int(duration[parent < 0].sum())
        if self.pass_id < 0:
            return
        self._pass_spans += count
        if self._kept_count + self._pass_spans <= KEEP_SPANS:
            self._pending.append((name, start, end, parent, pass_ids))
        else:
            self._pending = []

    def end_pass(self) -> Dict[str, object]:
        """Flush and return this pass's per-name ``calls``/``total_s``/``self_s``."""
        self.flush()
        if self._kept_count + self._pass_spans <= KEEP_SPANS:
            for name, start, end, parent, pass_ids in self._pending:
                parent = np.where(parent >= 0, parent + self._kept_count, -1)
                self._kept.append((name, start, end, parent, pass_ids))
                self._kept_count += name.size
        else:
            self.dropped_passes += 1
            self.dropped_spans += self._pass_spans
        self._pending = []
        layers = {
            name: {
                "calls": int(self._calls[i]),
                "total_s": self._total[i] / 1e9,
                "self_s": self._self[i] / 1e9,
            }
            for i, name in enumerate(self.names)
            if i < self._calls.size and self._calls[i]
        }
        return {
            "layers": layers,
            "root_s": self._root_ns / 1e9,
            "counters": dict(self.counters),
        }

    def write(self, path) -> None:
        """Write the kept spans as a compressed ``.npz`` file."""
        if self._kept:
            columns = [np.concatenate(parts) for parts in zip(*self._kept)]
        else:
            columns = [np.zeros(0, dtype=np.int64)] * 5
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=columns[0],
            start_ns=columns[1],
            end_ns=columns[2],
            parent=columns[3],
            pass_id=columns[4],
            dropped_passes=np.array(self.dropped_passes),
            dropped_spans=np.array(self.dropped_spans),
        )


class Patcher:
    """Temporarily replace attributes, restoring them on :meth:`restore`."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def method(self, cls, attr: str, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def function(self, original, replacement) -> None:
        """Rebind ``original`` wherever a loaded ``PACKAGE`` module names it.

        Modules that did ``from x import f`` hold their own reference,
        so patching only the defining module would miss them.
        """
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class CoreLibProxy:
    """Stands in for the compiled batch core's ``lib`` object.

    Every attribute is forwarded unchanged (and cached on first use)
    except ``bc_advance``, which records a span per call, and
    ``bc_comp_count``, whose results are summed into the
    ``batchcore.completions`` counter.
    """

    def __init__(self, lib, recorder: SpanRecorder):
        self._lib = lib
        self.bc_advance = recorder.wrap("batchcore.advance", lib.bc_advance)
        comp_count = lib.bc_comp_count

        def bc_comp_count(batch, rep):
            count = comp_count(batch, rep)
            recorder.count("batchcore.completions", count)
            return count

        self.bc_comp_count = bc_comp_count

    def __getattr__(self, name):
        value = getattr(self._lib, name)
        setattr(self, name, value)
        return value
