"""Property tests: batched-vs-serial bit-equality over the config space.

The directed batch tests (tests/sim/test_batch.py) pin canned shapes;
these sample machine shapes — {1,2,3}-D tori, identity and seeded
random mappings, neighbor, uniform-random or permutation programs, 1, 2
or 4 contexts, both fabrics,
``network_speedup ∈ {1, 2}`` — and require the
batched path to reproduce each seed's solo ``Machine`` run bit for bit,
whether ``run_batch`` ran the shape on the compiled core or as serial
machines.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping.strategies import (
    identity_mapping,
    random_mapping,
)
from repro.sim.batch import run_batch
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.topology.graphs import torus_neighbor_graph
from repro.workload.generators import uniform_random_graph_programs
from repro.workload.synthetic import NeighborExchangeProgram, build_programs


#: (dimensions, radix) pairs kept small enough for many examples.
SHAPES = [(1, 4), (1, 8), (2, 3), (2, 4), (3, 2), (3, 3)]


@st.composite
def machine_cases(draw):
    dimensions, radix = draw(st.sampled_from(SHAPES))
    return {
        "dimensions": dimensions,
        "radix": radix,
        "contexts": draw(st.sampled_from([1, 2, 4])),
        "compute": draw(st.sampled_from([8, 60, 400])),
        "switching": draw(st.sampled_from(["cut_through", "wormhole"])),
        "speedup": draw(st.sampled_from([1, 2])),
        "seed": draw(st.integers(0, 2**16)),
        # Program family and mapping: the validation suite's neighbor
        # traffic, the uniformity ablation's uniform-random traffic, or
        # permutation traffic to the thread ``shift`` places on, under
        # the identity or a seeded random mapping (None).
        "family": draw(st.sampled_from(["neighbor", "uniform", "permutation"])),
        "shift": draw(st.integers(1, 2**16)),
        "mapping_seed": draw(st.one_of(st.none(), st.integers(0, 2**16))),
    }


def permutation_programs(threads, shift, instances, compute, jitter):
    """Every thread reads the thread ``shift`` places on four times per
    write of its own."""
    shift = 1 + (shift - 1) % (threads - 1)
    return [
        [
            NeighborExchangeProgram(
                instance=instance,
                thread=thread,
                neighbors=((thread + shift) % threads,) * 4,
                compute_cycles_mean=compute,
                compute_jitter=jitter,
            )
            for thread in range(threads)
        ]
        for instance in range(instances)
    ]


def build_setup(case):
    config = SimulationConfig(
        radix=case["radix"],
        dimensions=case["dimensions"],
        contexts=case["contexts"],
        compute_cycles=case["compute"],
        switching=case["switching"],
        network_speedup=case["speedup"],
        seed=case["seed"],
    )
    nodes = config.node_count
    if case["family"] == "permutation":
        programs = permutation_programs(
            nodes, case["shift"], config.contexts, case["compute"],
            config.compute_jitter,
        )
    else:
        family = (
            uniform_random_graph_programs
            if case["family"] == "uniform"
            else build_programs
        )
        programs = family(
            torus_neighbor_graph(case["radix"], case["dimensions"]),
            config.contexts, case["compute"], config.compute_jitter,
        )
    mapping = (
        identity_mapping(nodes)
        if case["mapping_seed"] is None
        else random_mapping(nodes, seed=case["mapping_seed"])
    )
    return config, mapping, programs


class TestBatchParityProperties:
    @settings(max_examples=15, deadline=None)
    @given(machine_cases())
    def test_batch_is_bit_identical_to_serial_per_seed(self, case):
        config, mapping, programs = build_setup(case)
        seeds = (config.seed, config.seed + 1)
        batched = run_batch(
            config, mapping, programs, seeds, warmup=200, measure=600
        )
        for seed, summary in zip(seeds, batched):
            solo = Machine(
                config.with_seed(seed), mapping, copy.deepcopy(programs)
            ).run(warmup=200, measure=600)
            batch_dict = summary.as_dict()
            solo_dict = solo.as_dict()
            assert batch_dict == solo_dict, {
                key: (batch_dict[key], solo_dict[key])
                for key in solo_dict
                if batch_dict[key] != solo_dict[key]
            }
