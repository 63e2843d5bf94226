"""Common result type for experiment drivers.

Every experiment driver returns an :class:`ExperimentResult`: rendered
tables for humans plus the raw data for tests and downstream analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["ExperimentResult", "render_perf_line"]

#: Counter names rendered (in order) by :func:`render_perf_line`.
_PERF_COUNTER_ORDER = (
    "solve_calls",
    "batch_solves",
    "batch_points",
)


def render_perf_line(experiment: str, perf: Dict) -> str:
    """One-line diagnostics summary for ``--verbose`` output.

    Works for completed runs and for the partial counters a failed run
    leaves behind (``perf["failed"]`` truthy adds a failure marker, so
    partial counts are never mistaken for a full run's).
    """
    if not perf:
        return f"[perf] {experiment}: no counters recorded"
    pieces = []
    wall = perf.get("wall_seconds")
    if wall is not None:
        pieces.append(f"wall {wall:.3f}s")
    for name in _PERF_COUNTER_ORDER:
        value = perf.get(name)
        if value:
            pieces.append(f"{name} {value}")
    detail = ", ".join(pieces) if pieces else "all counters zero"
    if perf.get("failed"):
        return f"[perf] {experiment}: FAILED (partial counts) — {detail}"
    return f"[perf] {experiment}: {detail}"


@dataclass
class ExperimentResult:
    """Output of one reproduction experiment."""

    experiment: str
    title: str
    tables: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    data: Dict = field(default_factory=dict)
    #: Runner-attached diagnostics (solver counters, wall time).  Not
    #: part of :meth:`render` so reports stay identical regardless of
    #: how (or how parallel) the experiment ran.
    perf: Dict = field(default_factory=dict)
    #: Runner-attached observability payload (span records and the pid
    #: that collected them) when :mod:`repro.obs` is enabled; empty
    #: otherwise.  Like :attr:`perf`, never part of :meth:`render`.
    obs: Dict = field(default_factory=dict)

    def render(self) -> str:
        """Human-readable report."""
        parts = [f"== {self.experiment}: {self.title} =="]
        parts.extend(self.tables)
        if self.notes:
            bullet_lines = "\n".join(f"  - {note}" for note in self.notes)
            parts.append(f"Notes:\n{bullet_lines}")
        return "\n\n".join(parts)

    def render_perf(self) -> str:
        """One-line diagnostics summary for ``--verbose`` output."""
        return render_perf_line(self.experiment, self.perf)
