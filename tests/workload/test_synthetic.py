"""Tests for the synthetic workload programs."""

import random

import pytest

from repro.errors import ParameterError
from repro.topology.graphs import (
    CommunicationGraph,
    all_to_all_graph,
    torus_neighbor_graph,
)
from repro.workload.base import jittered_cycles
from repro.workload.synthetic import NeighborExchangeProgram, build_programs


class TestJitteredCycles:
    def test_zero_jitter_is_exact(self):
        rng = random.Random(0)
        assert jittered_cycles(10, 0.0, rng) == 10

    def test_jitter_stays_in_band(self):
        rng = random.Random(0)
        values = [jittered_cycles(10, 0.5, rng) for _ in range(500)]
        assert all(5 <= v <= 15 for v in values)

    def test_mean_preserved(self):
        rng = random.Random(0)
        values = [jittered_cycles(10, 0.5, rng) for _ in range(5000)]
        assert sum(values) / len(values) == pytest.approx(10.0, abs=0.3)

    def test_never_below_one(self):
        rng = random.Random(0)
        assert all(jittered_cycles(1, 0.9, rng) >= 1 for _ in range(100))


class TestNeighborExchangeProgram:
    def make(self, thread=0, neighbors=(1, 2, 3, 4)):
        return NeighborExchangeProgram(
            instance=0, thread=thread, neighbors=list(neighbors),
            compute_cycles_mean=8, compute_jitter=0.0,
        )

    def test_rejects_empty_neighbors(self):
        with pytest.raises(ParameterError):
            NeighborExchangeProgram(
                instance=0, thread=0, neighbors=[], compute_cycles_mean=8
            )

    def test_iteration_pattern(self):
        # Reads each neighbor's word, then writes its own, then repeats.
        program = self.make()
        rng = random.Random(0)
        accesses = [program.next_access(rng) for _ in range(10)]
        expected = [
            ((0, 1), False), ((0, 2), False), ((0, 3), False),
            ((0, 4), False), ((0, 0), True),
        ] * 2
        assert accesses == expected

    def test_instance_isolation(self):
        a = NeighborExchangeProgram(0, 0, [1], compute_cycles_mean=8)
        b = NeighborExchangeProgram(1, 0, [1], compute_cycles_mean=8)
        rng = random.Random(0)
        assert a.next_access(rng)[0][0] == 0
        assert b.next_access(rng)[0][0] == 1

    def test_compute_cycles_uses_mean(self):
        program = self.make()
        assert program.compute_cycles(random.Random(0)) == 8


class TestBuildPrograms:
    def test_shape(self):
        graph = torus_neighbor_graph(4, 2)
        programs = build_programs(graph, instances=2, compute_cycles_mean=8)
        assert len(programs) == 2
        assert len(programs[0]) == 16

    def test_neighbors_come_from_graph(self):
        graph = torus_neighbor_graph(4, 2)
        programs = build_programs(graph, instances=1, compute_cycles_mean=8)
        expected = sorted(dst for src, dst, _ in graph.edges() if src == 5)
        assert sorted(programs[0][5].neighbors) == expected

    @pytest.mark.parametrize("graph", [
        torus_neighbor_graph(8, 2),
        all_to_all_graph(6),
        CommunicationGraph.from_arrays(
            5, [3, 0, 2, 3, 1, 0, 4], [1, 2, 3, 0, 0, 4, 2]
        ),
    ], ids=["torus", "all-to-all", "array-backed"])
    def test_neighbor_lists_follow_edge_order(self, graph):
        programs = build_programs(graph, instances=2, compute_cycles_mean=8)
        for instance, row in enumerate(programs):
            for thread, program in enumerate(row):
                assert (program.instance, program.thread) == (instance, thread)
                assert program.neighbors == [
                    dst for src, dst, _ in graph.edges() if src == thread
                ]
        assert programs[0][0].neighbors is not programs[1][0].neighbors

    def test_rejects_zero_instances(self):
        graph = torus_neighbor_graph(4, 2)
        with pytest.raises(ParameterError):
            build_programs(graph, instances=0, compute_cycles_mean=8)
