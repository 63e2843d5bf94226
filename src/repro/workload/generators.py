"""Additional traffic-generating thread programs.

The synthetic torus-neighbor application (:mod:`repro.workload.synthetic`)
is the paper's validation workload; the programs here exercise the same
simulator under other classic communication patterns:

* :class:`UniformRandomProgram` — every access targets a uniformly random
  remote thread's block: the zero-physical-locality baseline the model's
  random-mapping analysis assumes;
* :class:`HotSpotProgram` — a fraction of accesses target one hot thread's
  block, modeling contended shared data (locks, reduction roots).

All programs follow the same read/write discipline as the paper's
application — reads of remote state words, periodic writes to the
thread's own word — so the coherence traffic they induce stays in the
protocol's fast paths while their *spatial* patterns differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ParameterError
from repro.topology.graphs import CommunicationGraph
from repro.workload.base import Block, jittered_cycles

__all__ = [
    "UniformRandomProgram",
    "HotSpotProgram",
    "uniform_random_graph_programs",
]


@dataclass
class UniformRandomProgram:
    """Reads uniformly random remote words; writes its own periodically.

    ``reads_per_write`` reads precede each write, mirroring the 4:1 ratio
    of the paper's application so ``g`` stays comparable.
    """

    instance: int
    thread: int
    threads: int
    compute_cycles_mean: int
    compute_jitter: float = 0.5
    reads_per_write: int = 4

    def __post_init__(self) -> None:
        if self.threads < 2:
            raise ParameterError("uniform random traffic needs >= 2 threads")
        if self.reads_per_write < 1:
            raise ParameterError(
                f"reads_per_write must be >= 1, got {self.reads_per_write!r}"
            )
        self._position = 0

    def compute_cycles(self, rng: random.Random) -> int:
        return jittered_cycles(self.compute_cycles_mean, self.compute_jitter, rng)

    def next_access(self, rng: random.Random) -> Tuple[Block, bool]:
        position = self._position
        self._position = (position + 1) % (self.reads_per_write + 1)
        if position < self.reads_per_write:
            target = rng.randrange(self.threads - 1)
            if target >= self.thread:
                target += 1
            return (self.instance, target), False
        return (self.instance, self.thread), True


@dataclass
class HotSpotProgram:
    """Directs a fraction of reads at one hot thread's block.

    With ``hot_fraction = 0`` this degenerates to uniform random traffic;
    with 1.0 every read hits the hot block (a pure convergecast).
    """

    instance: int
    thread: int
    threads: int
    hot_thread: int
    hot_fraction: float
    compute_cycles_mean: int
    compute_jitter: float = 0.5
    reads_per_write: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ParameterError(
                f"hot_fraction must be in [0, 1], got {self.hot_fraction!r}"
            )
        if not 0 <= self.hot_thread < self.threads:
            raise ParameterError(
                f"hot_thread {self.hot_thread!r} outside 0..{self.threads - 1}"
            )
        if self.threads < 2:
            raise ParameterError("hot-spot traffic needs >= 2 threads")
        self._position = 0

    def compute_cycles(self, rng: random.Random) -> int:
        return jittered_cycles(self.compute_cycles_mean, self.compute_jitter, rng)

    def _random_remote(self, rng: random.Random) -> int:
        target = rng.randrange(self.threads - 1)
        if target >= self.thread:
            target += 1
        return target

    def next_access(self, rng: random.Random) -> Tuple[Block, bool]:
        position = self._position
        self._position = (position + 1) % (self.reads_per_write + 1)
        if position >= self.reads_per_write:
            return (self.instance, self.thread), True
        if (
            rng.random() < self.hot_fraction
            and self.hot_thread != self.thread
        ):
            return (self.instance, self.hot_thread), False
        return (self.instance, self._random_remote(rng)), False


def uniform_random_graph_programs(
    graph: CommunicationGraph,
    instances: int,
    compute_cycles_mean: int,
    compute_jitter: float = 0.5,
) -> List[List[UniformRandomProgram]]:
    """Uniform-random programs sized to a graph's thread count.

    The graph supplies only the thread count (uniform traffic has no
    structure); provided for signature parity with
    :func:`repro.workload.synthetic.build_programs`.
    """
    if instances < 1:
        raise ParameterError(f"instances must be >= 1, got {instances!r}")
    return [
        [
            UniformRandomProgram(
                instance=instance,
                thread=thread,
                threads=graph.threads,
                compute_cycles_mean=compute_cycles_mean,
                compute_jitter=compute_jitter,
            )
            for thread in range(graph.threads)
        ]
        for instance in range(instances)
    ]
