"""Thread-to-processor mapping abstraction.

A :class:`Mapping` assigns each application thread to a processor.  The
paper's experiments (Section 3.2) use nine different bijective mappings of
the 64-thread synthetic application onto the 64-node machine to sweep the
average communication distance from one hop to just over six; the general
abstraction also admits many-to-one mappings (collocation — the only form
of physical-locality exploitation available to UCL architectures,
Section 1.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.errors import MappingError

__all__ = ["Mapping"]


@dataclass(frozen=True)
class Mapping:
    """An assignment of threads ``0..T-1`` to processors ``0..P-1``.

    Parameters
    ----------
    assignment:
        ``assignment[thread]`` is the processor the thread runs on.
    processors:
        Number of processors ``P``; every entry must lie in ``0..P-1``.
    """

    assignment: Tuple[int, ...]
    processors: int

    def __post_init__(self) -> None:
        if self.processors < 1:
            raise MappingError(
                f"processors must be >= 1, got {self.processors!r}"
            )
        if not self.assignment:
            raise MappingError("assignment must map at least one thread")
        # One min/max pass; the per-element walk only names the culprit.
        if 0 <= min(self.assignment) and max(self.assignment) < self.processors:
            return
        for thread, processor in enumerate(self.assignment):
            if not 0 <= processor < self.processors:
                raise MappingError(
                    f"thread {thread} mapped to processor {processor!r}, "
                    f"outside 0..{self.processors - 1}"
                )

    @classmethod
    def from_sequence(
        cls, assignment: Sequence[int], processors: int
    ) -> "Mapping":
        """Build from any integer sequence."""
        return cls(assignment=tuple(int(p) for p in assignment), processors=processors)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def threads(self) -> int:
        """Number of threads mapped."""
        return len(self.assignment)

    def processor_of(self, thread: int) -> int:
        """Processor hosting ``thread``."""
        if not 0 <= thread < self.threads:
            raise MappingError(f"thread {thread!r} outside 0..{self.threads - 1}")
        return self.assignment[thread]

    def threads_on(self, processor: int) -> List[int]:
        """Threads collocated on ``processor`` (possibly empty)."""
        if not 0 <= processor < self.processors:
            raise MappingError(
                f"processor {processor!r} outside 0..{self.processors - 1}"
            )
        return [t for t, p in enumerate(self.assignment) if p == processor]

    def load(self) -> Dict[int, int]:
        """Thread count per occupied processor."""
        counts: Dict[int, int] = {}
        for processor in self.assignment:
            counts[processor] = counts.get(processor, 0) + 1
        return counts

    @property
    def is_bijective(self) -> bool:
        """One thread per processor, all processors used."""
        return (
            self.threads == self.processors
            and len(set(self.assignment)) == self.processors
        )

    def require_bijective(self) -> "Mapping":
        """Raise :class:`MappingError` unless bijective; returns self."""
        if not self.is_bijective:
            raise MappingError(
                f"mapping of {self.threads} threads onto {self.processors} "
                "processors is not a bijection"
            )
        return self

    # ------------------------------------------------------------------
    # Transformation.
    # ------------------------------------------------------------------

    def compose(self, permutation: "Mapping") -> "Mapping":
        """Apply a processor permutation after this mapping.

        ``permutation`` must be a bijection on this mapping's processor
        set; the result maps each thread to
        ``permutation.processor_of(self.processor_of(thread))``.
        """
        permutation.require_bijective()
        if permutation.threads != self.processors:
            raise MappingError(
                f"permutation acts on {permutation.threads} processors, "
                f"mapping targets {self.processors}"
            )
        return Mapping(
            assignment=tuple(
                permutation.processor_of(p) for p in self.assignment
            ),
            processors=self.processors,
        )

    def swapped(self, thread_a: int, thread_b: int) -> "Mapping":
        """Copy with two threads' processors exchanged (optimizer move)."""
        if thread_a == thread_b:
            return self
        assignment = list(self.assignment)
        assignment[thread_a], assignment[thread_b] = (
            assignment[thread_b],
            assignment[thread_a],
        )
        return Mapping(assignment=tuple(assignment), processors=self.processors)

    def items(self) -> Iterator[Tuple[int, int]]:
        """(thread, processor) pairs."""
        return iter(enumerate(self.assignment))
