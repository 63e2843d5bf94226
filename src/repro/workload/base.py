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
    "node_states",
    "jitter_spread",
    "jittered_cycles",
]

_MASK64 = (1 << 64) - 1
_MASK32 = 0xFFFFFFFF
_TWO32 = 1 << 32

# numpy.random.SeedSequence's mixing constants (pool of four 32-bit words).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """SeedSequence's ``hashmix``: the hashed word and the advanced hash
    constant.  ``value`` is a Python int or a uint32 array."""
    value = value ^ hash_const
    hash_const = (hash_const * mult) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    """SeedSequence's ``mix`` of two words (Python ints or uint32 arrays)."""
    result = ((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)
    result &= _MASK32
    return result ^ (result >> 16)


def node_states(seed: int, nodes: int) -> np.ndarray:
    """Every node's stream state for root ``seed``, as a uint64 array.

    Entry ``i`` equals ``SeedSequence(seed).spawn(nodes)[i]
    .generate_state(1, np.uint64)[0]``, the numpy derivation that keys
    node ``i``'s :class:`NodeStream`, computed in one vectorized pass
    instead of ``nodes`` SeedSequence objects.  It ports numpy's mixing
    exactly: the root's 32-bit entropy words, little-endian and padded
    with zeros to the pool size as numpy pads spawned children, are
    hashed into the four-word pool as Python ints; only the last entropy
    word, the child's spawn index, varies by node and is mixed as a
    uint32 array.

    Raises :class:`~repro.errors.ParameterError` for a seed that is not
    a non-negative integer.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    seed = int(seed)
    if seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    words += [0] * (_POOL_SIZE - len(words))
    words.append(np.arange(nodes, dtype=np.uint32))  # the spawn key

    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        hashed, hash_const = _hashmix(word, hash_const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], hashed)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashed, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], hashed)

    # generate_state(1, np.uint64): two 32-bit words, low word first.
    low, hash_const = _hashmix(pool[0], _INIT_B, _MULT_B)
    high, _ = _hashmix(pool[1], hash_const, _MULT_B)
    return low.astype(np.uint64) | (high.astype(np.uint64) << np.uint64(32))


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
