"""Tests for the additional traffic generators."""

import random

import pytest

from repro.errors import ParameterError
from repro.topology.graphs import torus_neighbor_graph
from repro.workload.generators import (
    HotSpotProgram,
    UniformRandomProgram,
    uniform_random_graph_programs,
)


class TestUniformRandom:
    def make(self, **kwargs):
        defaults = dict(
            instance=0, thread=3, threads=16, compute_cycles_mean=8,
            compute_jitter=0.0,
        )
        defaults.update(kwargs)
        return UniformRandomProgram(**defaults)

    def test_never_reads_own_block(self):
        program = self.make()
        rng = random.Random(0)
        for _ in range(500):
            (instance, target), is_write = program.next_access(rng)
            if not is_write:
                assert target != 3

    def test_write_every_fifth_access(self):
        program = self.make()
        rng = random.Random(0)
        kinds = [program.next_access(rng)[1] for _ in range(10)]
        assert kinds == [False] * 4 + [True] + [False] * 4 + [True]

    def test_writes_target_own_block(self):
        program = self.make()
        rng = random.Random(0)
        for _ in range(20):
            block, is_write = program.next_access(rng)
            if is_write:
                assert block == (0, 3)

    def test_reads_cover_many_targets(self):
        program = self.make()
        rng = random.Random(0)
        targets = {
            program.next_access(rng)[0][1]
            for _ in range(300)
        }
        assert len(targets) > 10

    def test_rejects_tiny_thread_count(self):
        with pytest.raises(ParameterError):
            self.make(threads=1)

    def test_rejects_zero_reads_per_write(self):
        with pytest.raises(ParameterError):
            self.make(reads_per_write=0)


class TestHotSpot:
    def test_all_hot_reads_converge(self):
        program = HotSpotProgram(
            instance=0, thread=3, threads=16, hot_thread=0,
            hot_fraction=1.0, compute_cycles_mean=8,
        )
        rng = random.Random(0)
        reads = [
            program.next_access(rng)
            for _ in range(50)
        ]
        assert all(
            block[1] == 0 for block, is_write in reads if not is_write
        )

    def test_zero_fraction_is_uniform(self):
        program = HotSpotProgram(
            instance=0, thread=3, threads=16, hot_thread=0,
            hot_fraction=0.0, compute_cycles_mean=8,
        )
        rng = random.Random(0)
        targets = {
            program.next_access(rng)[0][1]
            for _ in range(300)
        }
        assert len(targets) > 8

    def test_hot_thread_itself_reads_elsewhere(self):
        program = HotSpotProgram(
            instance=0, thread=0, threads=16, hot_thread=0,
            hot_fraction=1.0, compute_cycles_mean=8,
        )
        rng = random.Random(0)
        for _ in range(50):
            (instance, target), is_write = program.next_access(rng)
            if not is_write:
                assert target != 0

    @pytest.mark.parametrize("fraction", [-0.1, 1.1])
    def test_rejects_bad_fraction(self, fraction):
        with pytest.raises(ParameterError):
            HotSpotProgram(
                instance=0, thread=3, threads=16, hot_thread=0,
                hot_fraction=fraction, compute_cycles_mean=8,
            )


class TestGraphSizedBuilders:
    def test_uniform_program_grid(self):
        graph = torus_neighbor_graph(4, 2)
        programs = uniform_random_graph_programs(graph, 2, 8)
        assert len(programs) == 2
        assert len(programs[0]) == 16
        assert programs[1][5].instance == 1
        assert programs[1][5].thread == 5

    def test_rejects_zero_instances(self):
        graph = torus_neighbor_graph(4, 2)
        with pytest.raises(ParameterError):
            uniform_random_graph_programs(graph, 0, 8)


class TestSimulatorIntegration:
    def test_uniform_random_runs_on_machine(self):
        from repro.mapping.strategies import identity_mapping
        from repro.sim.config import SimulationConfig
        from repro.sim.machine import Machine

        config = SimulationConfig(
            radix=4, dimensions=2, contexts=1,
            warmup_network_cycles=500, measure_network_cycles=2500,
        )
        graph = torus_neighbor_graph(4, 2)
        programs = uniform_random_graph_programs(graph, 1, 8)
        summary = Machine(config, identity_mapping(16), programs).run()
        # Uniform traffic on a 4x4 torus averages ~2.13 hops regardless
        # of mapping.
        assert 1.7 < summary.mean_message_hops < 2.6
        assert summary.remote_transactions > 0
