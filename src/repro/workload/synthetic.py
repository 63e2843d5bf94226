"""The paper's synthetic application (Section 3.2).

Each of the 64 threads "maintains a single word of state in local memory
and repeatedly iterates through a simple inner-loop.  During the course
of one pass through the inner-loop, a thread reads the value from each of
its neighbors' state words, performs some trivial computation, and writes
a new value to its own state word.  Threads make no effort to synchronize
with one another."

The communication graph is therefore the torus adjacency: with coherent
caches, reading a neighbor's state word pulls the line (request + data
reply), and writing one's own word invalidates the neighbors' cached
copies (invalidate + ack each).  One iteration issues 4 read transactions
and 1 write transaction and — in steady state — 16 network messages,
giving the paper's ``g = 3.2``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import ParameterError
from repro.topology.graphs import CommunicationGraph
from repro.workload.base import Block, jittered_cycles

__all__ = ["NeighborExchangeProgram", "build_programs"]


@dataclass
class NeighborExchangeProgram:
    """One thread of the synthetic application.

    Parameters
    ----------
    instance:
        Application-instance id (one instance per hardware context).
    thread:
        This thread's id; its own state word is block
        ``(instance, thread)``.
    neighbors:
        Thread ids whose state words are read each iteration.
    compute_cycles_mean:
        Mean processor cycles of "trivial computation" between accesses.
    compute_jitter:
        Uniform jitter fraction applied to each run length.
    """

    instance: int
    thread: int
    neighbors: Sequence[int]
    compute_cycles_mean: int
    compute_jitter: float = 0.5

    def __post_init__(self) -> None:
        if not self.neighbors:
            raise ParameterError(
                f"thread {self.thread} has no neighbors to exchange with"
            )
        self._position = 0

    def compute_cycles(self, rng: random.Random) -> int:
        return jittered_cycles(
            self.compute_cycles_mean, self.compute_jitter, rng
        )

    def next_access(self, rng: random.Random) -> Tuple[Block, bool]:
        """Cycle through: read each neighbor's word, then write our own."""
        accesses_per_iteration = len(self.neighbors) + 1
        position = self._position
        self._position = (position + 1) % accesses_per_iteration
        if position < len(self.neighbors):
            return (self.instance, self.neighbors[position]), False
        return (self.instance, self.thread), True


def build_programs(
    graph: CommunicationGraph,
    instances: int,
    compute_cycles_mean: int,
    compute_jitter: float = 0.5,
) -> List[List[NeighborExchangeProgram]]:
    """Programs for every (instance, thread) pair of a machine run.

    Returns ``programs[instance][thread]``.  The neighbor lists come from
    the communication graph's out-edges (rows of ``graph.out_csr()``, in
    edge order), so any graph — the paper's torus adjacency or otherwise —
    can drive the same program.
    """
    if instances < 1:
        raise ParameterError(f"instances must be >= 1, got {instances!r}")
    indptr, neighbors, _ = graph.out_csr()
    bounds, targets = indptr.tolist(), neighbors.tolist()
    return [
        [
            NeighborExchangeProgram(
                instance=instance,
                thread=thread,
                neighbors=targets[bounds[thread]:bounds[thread + 1]],
                compute_cycles_mean=compute_cycles_mean,
                compute_jitter=compute_jitter,
            )
            for thread in range(graph.threads)
        ]
        for instance in range(instances)
    ]
