"""Workloads: thread programs that drive the simulator."""

from repro.workload.base import (
    Block,
    NodeStream,
    ThreadProgram,
    jitter_spread,
    jittered_cycles,
)
from repro.workload.generators import (
    HotSpotProgram,
    UniformRandomProgram,
    uniform_random_graph_programs,
)
from repro.workload.scripted import ScriptedProgram
from repro.workload.synthetic import NeighborExchangeProgram, build_programs

__all__ = [
    "ThreadProgram",
    "Block",
    "NodeStream",
    "jitter_spread",
    "jittered_cycles",
    "NeighborExchangeProgram",
    "build_programs",
    "ScriptedProgram",
    "UniformRandomProgram",
    "HotSpotProgram",
    "uniform_random_graph_programs",
]
