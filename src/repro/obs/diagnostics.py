"""Solver convergence diagnostics.

When observability is on, every combined-model solve — scalar, batch
lane, or closed-form quadratic — appends one
:class:`SolveRecord` describing *how* the answer was reached: which
branch fired (linear fast path, bisection, which quadratic root,
saturation failure), how many bisection iterations it took, the final
relative bracket width, and the residual curve gap at the returned rate.

``repro-locality diagnose <experiment>`` runs an experiment with
diagnostics on and renders the collected records, flagging solves that
came close to the iteration cap and operating points whose channel
utilization approaches saturation (rho -> 1) — the regime where the
model's predictions are least trustworthy.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import (
    ITERATION_BUCKETS,
    REGISTRY,
    UTILIZATION_BUCKETS,
)

__all__ = ["SolveRecord", "SolveDiagnostics", "render_diagnosis"]

#: Bisection iteration count above which a solve is flagged as nearly
#: non-convergent (the solver's hard cap is 200; a healthy solve at the
#: production tolerance needs ~45-60).
NEAR_NONCONVERGENT_ITERATIONS = 100

#: Channel utilization above which an operating point is flagged as
#: saturated (rho -> 1).
SATURATION_THRESHOLD = 0.95


@dataclass(frozen=True)
class SolveRecord:
    """One solve's convergence story."""

    #: "scalar" | "batch" | "quadratic".
    kind: str
    #: Which resolution branch fired: "linear", "bisection", "root+",
    #: "root-", "saturation", "non-convergent".
    branch: str
    distance: float
    iterations: int
    #: Final relative bracket width ((high - low) / high); 0 for
    #: closed-form branches.
    bracket_width: float
    #: Node-curve minus network-curve latency at the returned rate.
    residual: float
    message_rate: float
    utilization: float

    def as_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "branch": self.branch,
            "distance": self.distance,
            "iterations": self.iterations,
            "bracket_width": self.bracket_width,
            "residual": self.residual,
            "message_rate": self.message_rate,
            "utilization": self.utilization,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SolveRecord":
        return cls(**data)


class SolveDiagnostics:
    """Bounded per-process collection of :class:`SolveRecord`.

    Capacity-bounded: once ``capacity`` records are held, further
    records are counted in ``dropped`` rather than silently discarded.
    """

    capacity = 200_000

    def __init__(self):
        self.records: List[SolveRecord] = []
        self.dropped = 0

    def record(
        self,
        kind: str,
        branch: str,
        distance: float,
        iterations: int = 0,
        bracket_width: float = 0.0,
        residual: float = 0.0,
        message_rate: float = 0.0,
        utilization: float = 0.0,
    ) -> None:
        REGISTRY.histogram(
            "solver.iterations",
            ITERATION_BUCKETS,
            help="bisection iterations per solve",
        ).observe(iterations)
        REGISTRY.histogram(
            "solver.utilization",
            UTILIZATION_BUCKETS,
            help="channel utilization at solved operating points",
        ).observe(utilization)
        if len(self.records) >= self.capacity:
            self.dropped += 1
            return
        self.records.append(
            SolveRecord(
                kind=kind,
                branch=str(branch),
                distance=float(distance),
                iterations=int(iterations),
                bracket_width=float(bracket_width),
                residual=float(residual),
                message_rate=float(message_rate),
                utilization=float(utilization),
            )
        )

    def __len__(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0

    # ------------------------------------------------------------------
    # Analysis.
    # ------------------------------------------------------------------

    def by_branch(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.branch] = counts.get(record.branch, 0) + 1
        return counts

    def iteration_stats(self) -> Optional[Dict[str, float]]:
        iterations = [
            r.iterations for r in self.records if r.branch == "bisection"
        ]
        if not iterations:
            return None
        return {
            "min": min(iterations),
            "median": statistics.median(iterations),
            "max": max(iterations),
        }

    def flagged(
        self,
        max_iterations: int = NEAR_NONCONVERGENT_ITERATIONS,
        utilization_threshold: float = SATURATION_THRESHOLD,
    ) -> List[Tuple[SolveRecord, List[str]]]:
        """Records with convergence or saturation concerns, with reasons."""
        flagged = []
        for record in self.records:
            reasons = []
            if record.iterations > max_iterations:
                reasons.append(
                    f"near-non-convergent ({record.iterations} iterations)"
                )
            if record.branch in ("saturation", "non-convergent"):
                reasons.append(f"solver branch {record.branch!r}")
            if record.utilization > utilization_threshold:
                reasons.append(
                    f"saturated network (rho = {record.utilization:.3f})"
                )
            if reasons:
                flagged.append((record, reasons))
        return flagged


def render_diagnosis(
    diagnostics: SolveDiagnostics,
    experiment: str,
    utilization_threshold: float = SATURATION_THRESHOLD,
    perf_delta: Optional[Dict[str, int]] = None,
) -> str:
    """Human-readable convergence report for one experiment run."""
    lines = [f"== diagnose {experiment} =="]
    if perf_delta:
        lines.append(
            "solver activity    : "
            f"{perf_delta.get('solve_calls', 0)} scalar solves, "
            f"{perf_delta.get('batch_solves', 0)} batch calls covering "
            f"{perf_delta.get('batch_points', 0)} lanes"
        )
    lines.append(f"solves recorded    : {len(diagnostics)}")
    if diagnostics.dropped:
        lines.append(f"records dropped    : {diagnostics.dropped} (capacity)")
    branches = diagnostics.by_branch()
    if branches:
        rendered = ", ".join(
            f"{branch} {count}" for branch, count in sorted(branches.items())
        )
        lines.append(f"branches           : {rendered}")
    stats = diagnostics.iteration_stats()
    if stats:
        lines.append(
            "bisection iterations: "
            f"min {stats['min']:g}, median {stats['median']:g}, "
            f"max {stats['max']:g} (cap 200)"
        )
    histogram = REGISTRY.get("solver.iterations")
    if histogram is not None and histogram.count:
        lines.append(f"iteration histogram: {histogram.render()}")

    flagged = diagnostics.flagged(utilization_threshold=utilization_threshold)
    if not flagged:
        lines.append(
            "flags              : none (no near-non-convergent solves, "
            f"no operating points with rho > {utilization_threshold:g})"
        )
    else:
        lines.append(f"flags              : {len(flagged)} solve(s) flagged")
        shown = flagged[:20]
        for record, reasons in shown:
            lines.append(
                f"  - d = {record.distance:.4g}, "
                f"rho = {record.utilization:.3f}, "
                f"iterations = {record.iterations}: {'; '.join(reasons)}"
            )
        if len(flagged) > len(shown):
            lines.append(f"  ... and {len(flagged) - len(shown)} more")
    return "\n".join(lines)
