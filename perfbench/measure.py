"""Arithmetic for the benchmark's reported figures."""

from __future__ import annotations

import statistics
import traceback
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = ["Tally", "best_of_parts", "tail_percentile", "median"]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def best_of_parts(passes: Sequence[Sequence[float]]) -> float:
    """The fastest pass, assembled part by part.

    Each pass is a list of part walls, the same parts in the same order
    every pass; the result is the sum over parts of each part's fastest
    wall.  A one-part pass gives the fastest pass.  Short parts each find
    a quiet stretch of a shared host more often than a long pass does.
    """
    if len({len(walls) for walls in passes}) != 1:
        raise ValueError("passes differ in their number of parts")
    return float(sum(min(walls) for walls in zip(*passes)))


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """The highest percentile that has at least ten samples beyond it.

    Returns ``(value, percentile, count)``: ``value`` is the sorted
    sample with exactly ten samples above it, ``percentile`` its rank as
    a percentage of ``count`` samples.  With ten samples or fewer no
    such percentile exists and the result is ``None``.
    """
    count = len(samples)
    if count <= 10:
        return None
    index = count - 11
    value = sorted(samples)[index]
    return float(value), 100.0 * (index + 1) / count, count


class Tally:
    """Operations attempted and failed; an exception counts as a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def attempt(self, operation: Callable[[], List[str]]) -> None:
        """Run ``operation``, which returns the problems its checks found."""
        try:
            problems = list(operation())
        except Exception as error:  # noqa: BLE001 - a crash is a failed operation
            traceback.print_exc()
            problems = [f"{type(error).__name__}: {error}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
