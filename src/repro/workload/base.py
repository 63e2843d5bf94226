"""Thread program abstraction and the model's per-node random stream.

A :class:`ThreadProgram` drives one hardware context: the processor
alternates between ``compute_cycles()`` of useful work and the memory
access returned by ``next_access()``.  Programs are deliberately tiny
state machines — the simulator models timing, not computation.

Blocks are identified by ``(instance, owner_thread)`` pairs: the paper's
multi-context experiments run one independent copy of the application per
hardware context ("no data is shared between application instances"), so
the instance id keeps their address spaces disjoint.

**The workload stream is a model rule.**  Every processor draws from one
:class:`NodeStream` — SplitMix64 with unbiased bounded draws — and run
lengths follow :func:`jittered_cycles`' integer rule.  Both are written
out exactly here so that any engine (the serial processor or the
compiled batch core) produces the same draws from the same seed.
"""

from __future__ import annotations

import random
from typing import Protocol, Tuple, Union

import numpy as np

from repro.errors import ParameterError

Block = Tuple[int, int]

__all__ = [
    "ThreadProgram",
    "Block",
    "NodeStream",
    "jitter_spread",
    "jittered_cycles",
]

_MASK64 = (1 << 64) - 1
_TWO32 = 1 << 32


class NodeStream:
    """One node's random stream: SplitMix64 over a 64-bit state.

    * :meth:`next64` adds ``0x9E3779B97F4A7C15`` to the state and mixes
      it with the xor-shift-multiply rounds (shifts 30/27/31, multipliers
      ``0xBF58476D1CE4E5B9`` and ``0x94D049BB133111EB``), all mod 2⁶⁴.
    * :meth:`randrange` is Lemire's multiply-shift with rejection on the
      upper 32 bits of a draw, so bounded draws are exactly uniform.
    * :meth:`random` is the top 53 bits as a float in ``[0, 1)``.

    Programs call only ``randrange`` and ``random``, the two methods they
    share with :class:`random.Random`.
    """

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = int(state) & _MASK64

    @classmethod
    def from_seed_sequence(cls, seed_seq: np.random.SeedSequence) -> "NodeStream":
        """The stream a node's spawned ``SeedSequence`` keys."""
        return cls(int(seed_seq.generate_state(1, np.uint64)[0]))

    def next64(self) -> int:
        state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        self.state = state
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform integer in ``[0, n)`` for ``1 <= n <= 2**32``."""
        if not 1 <= n <= _TWO32:
            raise ParameterError(f"randrange needs 1 <= n <= 2**32, got {n!r}")
        m = (self.next64() >> 32) * n
        low = m & 0xFFFFFFFF
        if low < n:
            threshold = (_TWO32 - n) % n
            while low < threshold:
                m = (self.next64() >> 32) * n
                low = m & 0xFFFFFFFF
        return m >> 32

    def random(self) -> float:
        return (self.next64() >> 11) * (1.0 / (1 << 53))


Rng = Union[NodeStream, random.Random]


class ThreadProgram(Protocol):
    """What a hardware context executes.

    ``rng`` is the node's model stream (:class:`NodeStream`); programs
    use only its ``randrange`` and ``random``.
    """

    def compute_cycles(self, rng: Rng) -> int:
        """Processor cycles of useful work before the next access."""
        ...

    def next_access(self, rng: Rng) -> Tuple[Block, bool]:
        """The next memory access as ``(block, is_write)``."""
        ...


def jitter_spread(base: int, jitter_fraction: float) -> int:
    """Half-width ``s`` of :func:`jittered_cycles`' window: ``int(base *
    jitter_fraction)``, or 0 when jitter is off."""
    if jitter_fraction <= 0.0:
        return 0
    return int(base * jitter_fraction)


def jittered_cycles(base: int, jitter_fraction: float, rng: Rng) -> int:
    """A run length of ``base`` cycles with uniform integer jitter.

    With ``s = jitter_spread(base, jitter_fraction)`` the run length is
    ``base - s + rng.randrange(2s + 1)``: uniform over ``[base - s,
    base + s]``, so the mean stays ``base``.  With ``s == 0`` it is
    ``base`` and no draw is made.  Jitter breaks the phase-locking a
    fully deterministic workload produces on a synchronous machine.
    Always returns >= 1.
    """
    spread = jitter_spread(base, jitter_fraction)
    if spread == 0:
        return max(1, base)
    return max(1, base - spread + rng.randrange(2 * spread + 1))
