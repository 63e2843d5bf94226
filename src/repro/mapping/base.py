"""Thread-to-processor mapping abstraction.

A :class:`Mapping` assigns each application thread to a processor.  The
paper's experiments (Section 3.2) use nine different bijective mappings of
the 64-thread synthetic application onto the 64-node machine to sweep the
average communication distance from one hop to just over six.  The
simulator runs bijective mappings only.  The abstraction also admits
many-to-one mappings (collocation — the only form of physical-locality
exploitation available to UCL architectures, Section 1.1), but only for
evaluation: :func:`~repro.mapping.evaluate.average_distance` prices them.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Sequence, Tuple

import numpy as np

from repro.errors import MappingError

__all__ = ["Mapping"]


def _integral(entry) -> bool:
    return isinstance(entry, (int, np.integer)) or (
        isinstance(entry, float) and entry.is_integer()
    )


def _checked(values: np.ndarray, processors: int) -> np.ndarray:
    """``values`` as an int64 array after the constructor's checks: a
    numpy min/max pass for integer arrays, an element walk (naming the
    first bad thread) for anything else.  Copies only to change dtype."""
    if processors < 1:
        raise MappingError(f"processors must be >= 1, got {processors!r}")
    if values.ndim != 1:
        raise MappingError(
            f"assignment array must be 1-D, got shape {values.shape}"
        )
    if not values.size:
        raise MappingError("assignment must map at least one thread")
    if values.dtype.kind in "biu":
        if values.min() >= 0 and values.max() < processors:
            return values.astype(np.int64, copy=False)
        thread = int(np.argmax((values < 0) | (values >= processors)))
        raise _outside(thread, int(values[thread]), processors)
    # Floats, Python ints beyond int64 (an object array), and the rest.
    for thread, processor in enumerate(values.tolist()):
        if not _integral(processor):
            raise MappingError(
                f"thread {thread} mapped to non-integer processor {processor!r}"
            )
        if not 0 <= processor < processors:
            raise _outside(thread, processor, processors)
    return values.astype(np.int64)


def _outside(thread: int, processor: int, processors: int) -> MappingError:
    return MappingError(
        f"thread {thread} mapped to processor {processor!r}, "
        f"outside 0..{processors - 1}"
    )


def _as_tuple(array: np.ndarray) -> Tuple[int, ...]:
    """The ``assignment`` tuple of an int64 array (Python ints)."""
    return tuple(array.tolist())


class Mapping:
    """An assignment of threads ``0..T-1`` to processors ``0..P-1``.

    Parameters
    ----------
    assignment:
        ``assignment[thread]`` is the processor the thread runs on: any
        1-D integer sequence or array (whole-number floats are taken as
        their integers; anything else raises :class:`MappingError`).
    processors:
        Number of processors ``P``; every entry must lie in ``0..P-1``.

    The one stored representation is the read-only int64 array
    :meth:`as_array` returns, a copy of what the mapping was built from
    (every constructor takes the same array path: one copy and a numpy
    range check).  The :attr:`assignment` tuple is built from it on first
    access and kept, for the callers that index it per thread
    (:meth:`processor_of`, the loop references, ``repr``); the shuffle,
    the optimizers and the evaluators never touch it, so a 10⁵-node
    mapping they return never builds a 10⁵-entry tuple.  Mappings are
    immutable; equality, hashing, pickling and ``repr`` (the
    dataclass-style ``Mapping(assignment=(...), processors=P)``) do not
    depend on how one was built.
    """

    __slots__ = ("processors", "_array", "_assignment")

    def __init__(self, assignment: Sequence[int], processors: int) -> None:
        self._install(np.array(assignment), processors)

    def _install(self, array: np.ndarray, processors: int) -> None:
        array = _checked(array, processors)
        array.setflags(write=False)
        object.__setattr__(self, "processors", processors)
        object.__setattr__(self, "_array", array)
        object.__setattr__(self, "_assignment", None)

    @classmethod
    def _adopt(cls, array: np.ndarray, processors: int) -> "Mapping":
        """Wrap a fresh int64 array its caller hands over and no longer
        writes (a strategy's construction, an optimizer's final
        position), without a copy."""
        mapping = object.__new__(cls)
        mapping._install(array, processors)
        return mapping

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self._array, self.processors)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.processors == other.processors and np.array_equal(
            self._array, other._array
        )

    def __hash__(self) -> int:
        return hash((self._array.tobytes(), self.processors))

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(assignment={self.assignment!r}, "
            f"processors={self.processors!r})"
        )

    @property
    def assignment(self) -> Tuple[int, ...]:
        """``assignment[thread]`` is the processor the thread runs on: a
        tuple of ints, built on first access."""
        assignment = self._assignment
        if assignment is None:
            assignment = _as_tuple(self._array)
            object.__setattr__(self, "_assignment", assignment)
        return assignment

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def threads(self) -> int:
        """Number of threads mapped."""
        return self._array.size

    def processor_of(self, thread: int) -> int:
        """Processor hosting ``thread``."""
        assignment = self.assignment
        if not 0 <= thread < len(assignment):
            raise MappingError(f"thread {thread!r} outside 0..{self.threads - 1}")
        return assignment[thread]

    @property
    def is_bijective(self) -> bool:
        """One thread per processor, all processors used.

        With as many threads as processors (and every entry in range,
        which the constructor checks), every processor is used exactly
        when each is used at least once: one boolean scatter."""
        if self.threads != self.processors:
            return False
        seen = np.zeros(self.processors, dtype=bool)
        seen[self._array] = True
        return bool(seen.all())

    def as_array(self) -> np.ndarray:
        """The assignment as the mapping's own read-only int64 array."""
        return self._array

    def require_bijective(self) -> "Mapping":
        """Raise :class:`MappingError` unless bijective; returns self."""
        if not self.is_bijective:
            raise MappingError(
                f"mapping of {self.threads} threads onto {self.processors} "
                "processors is not a bijection"
            )
        return self
