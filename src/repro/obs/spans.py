"""Structured spans and trace export (Chrome trace format + JSONL).

A span is a named, timed interval with free-form dimensions::

    with obs.span("solver.solve", distance=4.06):
        ...

Spans nest: the buffer keeps a stack per process, stamping each record
with its depth and the index of its parent so exports preserve the call
structure.  Records are stored as plain dicts, which keeps them cheap to
pickle across a ``ProcessPoolExecutor`` (worker traces are shipped back
to the parent and merged with :meth:`TraceBuffer.ingest`, keyed by the
worker's pid).

When observability is disabled, :func:`repro.obs.span` returns the
shared :data:`NULL_SPAN` singleton whose enter/exit do nothing — the
instrumentation compiles down to one flag check per call site.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Iterable, List

__all__ = ["NullSpan", "NULL_SPAN", "Span", "TraceBuffer"]


class NullSpan:
    """Do-nothing context manager returned while observability is off."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


#: Shared no-op span; one instance for the whole process.
NULL_SPAN = NullSpan()


class Span:
    """Live (in-progress) span handle; records itself into the buffer."""

    __slots__ = ("_buffer", "name", "attrs", "_start", "_parent", "_depth")

    def __init__(self, buffer: "TraceBuffer", name: str, attrs: Dict):
        self._buffer = buffer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "Span":
        stack = self._buffer._stack
        self._parent = stack[-1] if stack else -1
        self._depth = len(stack)
        stack.append(self._buffer._next_index())
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        end = time.perf_counter()
        buffer = self._buffer
        index = buffer._stack.pop()
        buffer._append(
            {
                "index": index,
                "name": self.name,
                "start": self._start - buffer.epoch,
                "duration": end - self._start,
                "depth": self._depth,
                "parent": self._parent,
                "pid": buffer.pid,
                "tid": buffer.tid,
                "args": self.attrs,
            }
        )
        return False


class TraceBuffer:
    """Completed-span store with Chrome-trace / JSONL export.

    Spans are appended at *end* time (Chrome "complete" events carry a
    duration, so nothing needs to be written at start), which means the
    list is ordered by completion.  ``index`` restores start order and
    ``parent`` the nesting; both survive serialization.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.tid = threading.get_ident() & 0xFFFF
        self.epoch = time.perf_counter()
        self.spans: List[Dict] = []
        self.counters: List[Dict] = []
        self._stack: List[int] = []
        self._counter = 0

    def _next_index(self) -> int:
        index = self._counter
        self._counter += 1
        return index

    def _append(self, record: Dict) -> None:
        self.spans.append(record)

    def span(self, name: str, attrs: Dict) -> Span:
        return Span(self, name, attrs)

    def add_counter(self, name: str, ts_us: float, values: Dict) -> None:
        """Record one counter sample (Chrome trace ph="C" event).

        ``ts_us`` is the sample's timestamp in trace microseconds —
        callers with their own timebase (e.g. the fabric telemetry's
        network cycles) map one unit to one microsecond, which lands the
        series on a readable scale next to the spans.  ``values`` must
        be a flat name→number mapping (what Perfetto stacks per track).
        """
        self.counters.append(
            {
                "name": name,
                "ts": float(ts_us),
                "pid": self.pid,
                "values": dict(values),
            }
        )

    # ------------------------------------------------------------------
    # Queries and cross-process merge.
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def mark(self) -> int:
        """Position token; pass to :meth:`since` for the spans after it."""
        return len(self.spans)

    def since(self, mark: int) -> List[Dict]:
        """Copies of the span records appended after ``mark``."""
        return [dict(record) for record in self.spans[mark:]]

    def ingest(self, records: Iterable[Dict]) -> int:
        """Merge foreign (e.g. pool-worker) span records; returns count."""
        added = 0
        for record in records:
            self.spans.append(dict(record))
            added += 1
        return added

    def names(self) -> List[str]:
        return [record["name"] for record in self.spans]

    # ------------------------------------------------------------------
    # Export.
    # ------------------------------------------------------------------

    def chrome_trace_events(self) -> List[Dict]:
        """Spans (ph=X) plus counter samples (ph=C), microseconds."""
        events = [
            {
                "name": record["name"],
                "cat": record["name"].split(".", 1)[0],
                "ph": "X",
                "ts": record["start"] * 1e6,
                "dur": record["duration"] * 1e6,
                "pid": record["pid"],
                "tid": record["tid"],
                "args": dict(record["args"], depth=record["depth"]),
            }
            for record in sorted(self.spans, key=lambda r: (r["pid"], r["start"]))
        ]
        events.extend(
            {
                "name": record["name"],
                "cat": record["name"].split(".", 1)[0],
                "ph": "C",
                "ts": record["ts"],
                "pid": record["pid"],
                "args": dict(record["values"]),
            }
            for record in sorted(self.counters, key=lambda r: (r["pid"], r["ts"]))
        )
        return events

    def write_chrome_trace(self, path: str) -> str:
        """Write a ``chrome://tracing`` / Perfetto-loadable JSON file."""
        document = {
            "traceEvents": self.chrome_trace_events(),
            "displayTimeUnit": "ms",
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return path

    def write_jsonl(self, path: str) -> str:
        """Write raw span records, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record))
                handle.write("\n")
        return path
