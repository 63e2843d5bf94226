"""Tests for the block-multithreaded processor model."""

import random

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.sim.processor import ContextState
from repro.mapping.strategies import identity_mapping
from repro.topology.graphs import torus_neighbor_graph
from repro.workload.synthetic import build_programs


def make_machine(contexts=1, compute=8, seed=1):
    config = SimulationConfig(
        radix=4,
        dimensions=2,
        contexts=contexts,
        compute_cycles=compute,
        seed=seed,
        warmup_network_cycles=500,
        measure_network_cycles=2500,
    )
    graph = torus_neighbor_graph(4, 2)
    programs = build_programs(graph, contexts, compute, config.compute_jitter)
    return Machine(config, identity_mapping(16), programs)


class TestContextLifecycle:
    def test_initial_states(self):
        machine = make_machine(contexts=4)
        processor = machine.processors[0]
        states = [c.state for c in processor.contexts]
        assert states[0] is ContextState.COMPUTING
        assert all(s is ContextState.READY for s in states[1:])

    def test_single_context_never_switches(self):
        machine = make_machine(contexts=1)
        machine.run(warmup=200, measure=2000)
        assert all(p.switch_count == 0 for p in machine.processors)

    def test_multithreading_switches_contexts(self):
        machine = make_machine(contexts=4)
        machine.run(warmup=200, measure=2000)
        assert sum(p.switch_count for p in machine.processors) > 0


class TestOverlap:
    def test_more_contexts_issue_more_transactions(self):
        # The whole point of multithreading: throughput rises with p.
        single = make_machine(contexts=1).run(warmup=500, measure=4000)
        quad = make_machine(contexts=4).run(warmup=500, measure=4000)
        assert quad.remote_transactions > 1.5 * single.remote_transactions

    def test_more_contexts_reduce_idle_time(self):
        single = make_machine(contexts=1).run(warmup=500, measure=4000)
        quad = make_machine(contexts=4).run(warmup=500, measure=4000)
        assert quad.idle_fraction < single.idle_fraction


class TestDeterminism:
    def test_same_seed_same_results(self):
        a = make_machine(contexts=2, seed=9).run(warmup=300, measure=2000)
        b = make_machine(contexts=2, seed=9).run(warmup=300, measure=2000)
        assert a.messages_sent == b.messages_sent
        assert a.remote_transactions == b.remote_transactions
        assert a.mean_message_latency == b.mean_message_latency

    def test_different_seeds_differ(self):
        a = make_machine(contexts=2, seed=9).run(warmup=300, measure=2000)
        b = make_machine(contexts=2, seed=10).run(warmup=300, measure=2000)
        assert a.messages_sent != b.messages_sent
