"""Tests for collocation mode (UCL-style locality, Section 1.1)."""

import pytest

from repro.errors import SimulationError
from repro.mapping.base import Mapping
from repro.mapping.strategies import identity_mapping
from repro.sim.batch import run_batch
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.sim.replicate import default_seeds
from repro.topology.graphs import ring_graph
from repro.workload.synthetic import build_programs
from tests.sim.mappings import block_mapping


def ring_machine(mapping, contexts=2, radix=4):
    """A 2x-collocated ring application on a radix x radix torus."""
    config = SimulationConfig(
        radix=radix, dimensions=2, contexts=contexts,
        warmup_network_cycles=500, measure_network_cycles=3000,
    )
    threads = config.node_count * contexts
    graph = ring_graph(threads)
    programs = build_programs(graph, 1, config.compute_cycles, 0.5)
    return Machine(config, mapping, programs)


def shuffled_collocation(threads, processors, seed=3):
    """Collocation that ignores the ring structure (balanced, random)."""
    import random

    order = list(range(threads))
    random.Random(seed).shuffle(order)
    assignment = [0] * threads
    per_node = threads // processors
    for position, thread in enumerate(order):
        assignment[thread] = position // per_node
    return Mapping(assignment=tuple(assignment), processors=processors)


class TestValidation:
    def test_collocation_requires_single_instance(self):
        config = SimulationConfig(radix=4, dimensions=2, contexts=2)
        graph = ring_graph(32)
        programs = build_programs(graph, 2, 8, 0.5)  # two instances: wrong
        with pytest.raises(SimulationError):
            Machine(config, block_mapping(32, 16), programs)

    def test_collocation_requires_balanced_load(self):
        config = SimulationConfig(radix=4, dimensions=2, contexts=2)
        graph = ring_graph(32)
        programs = build_programs(graph, 1, 8, 0.5)
        lopsided = Mapping(
            assignment=tuple([0] * 4 + [i % 16 for i in range(28)]),
            processors=16,
        )
        with pytest.raises(SimulationError):
            Machine(config, lopsided, programs)

    def test_wrong_thread_count_rejected(self):
        config = SimulationConfig(radix=4, dimensions=2, contexts=2)
        graph = ring_graph(48)  # neither 16 nor 32
        programs = build_programs(graph, 1, 8, 0.5)
        mapping = Mapping(
            assignment=tuple(i % 16 for i in range(48)), processors=16
        )
        with pytest.raises(SimulationError):
            Machine(config, mapping, programs)


class TestCollocationLocality:
    def test_collocated_ring_runs(self):
        machine = ring_machine(block_mapping(32, 16))
        summary = machine.run()
        assert summary.transactions > 0

    def test_good_collocation_cuts_network_traffic(self):
        # Blocked collocation puts ring neighbors together: half of each
        # thread's communication becomes node-local.  A shuffled
        # collocation keeps everything remote.  One seed's short window
        # scatters the traffic ratio across 0.81-0.89, so the bound is
        # checked on traffic pooled over eight seeds of full-length
        # windows (ratio about 0.8).
        config = SimulationConfig(
            radix=4, dimensions=2, contexts=2,
            warmup_network_cycles=3000, measure_network_cycles=15000,
        )
        programs = build_programs(
            ring_graph(32), 1, config.compute_cycles, 0.5
        )
        seeds = default_seeds(config.seed, 8)
        good = run_batch(
            config, block_mapping(32, 16), programs, seeds
        )
        bad = run_batch(config, shuffled_collocation(32, 16), programs, seeds)
        assert sum(s.messages_sent for s in good) < 0.85 * sum(
            s.messages_sent for s in bad
        )

    def test_good_collocation_improves_throughput(self):
        # Collocated communicating threads share the node's cache, so
        # their exchanges become cache hits; total completed accesses
        # rise and processors idle less.
        good = ring_machine(block_mapping(32, 16)).run()
        bad = ring_machine(shuffled_collocation(32, 16)).run()
        assert (
            good.cache_hits + good.transactions
            > bad.cache_hits + bad.transactions
        )
        assert good.idle_fraction < bad.idle_fraction

    def test_collocated_neighbors_communicate_through_the_cache(self):
        good = ring_machine(block_mapping(32, 16)).run()
        bad = ring_machine(shuffled_collocation(32, 16)).run()
        # Half of each thread's ring partners are on-node under blocked
        # collocation: those exchanges become hits.
        assert good.cache_hits > 2 * bad.cache_hits

    def test_replicated_mode_still_works(self):
        # The paper's arrangement is unaffected by the new mode.
        config = SimulationConfig(
            radix=4, dimensions=2, contexts=2,
            warmup_network_cycles=500, measure_network_cycles=2000,
        )
        from repro.topology.graphs import torus_neighbor_graph

        graph = torus_neighbor_graph(4, 2)
        programs = build_programs(graph, 2, config.compute_cycles, 0.5)
        machine = Machine(config, identity_mapping(16), programs)
        assert machine.run().remote_transactions > 0
