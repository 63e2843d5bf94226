"""Placement: the simulator runs bijective mappings only.

Section 3.2 runs one independent application instance per hardware
context, each node running the same-numbered thread of every instance.
A many-to-one (collocated) mapping raises :class:`SimulationError` on
every simulator route; collocation is priced only by mapping evaluation.
"""

import pytest

from repro.errors import SimulationError
from repro.mapping.base import Mapping
from repro.mapping.strategies import identity_mapping
from repro.sim import batchcore
from repro.sim.batch import BatchMachine, core_runs, run_batch
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.topology.graphs import ring_graph, torus_neighbor_graph
from repro.workload.synthetic import build_programs
from tests.sim.mappings import block_mapping

needs_core = pytest.mark.skipif(
    batchcore.load() is None,
    reason=f"batch core unavailable: {batchcore.load_failure()}",
)


def many_to_one(switching="cut_through"):
    """Two ring threads per node of a 16-node machine at two contexts:
    ``block_mapping(2 * N, N)`` with one instance of ``2 * N`` programs."""
    config = SimulationConfig(
        radix=4, dimensions=2, contexts=2, switching=switching
    )
    nodes = config.node_count
    programs = build_programs(ring_graph(2 * nodes), 1, 8, 0.5)
    return config, block_mapping(2 * nodes, nodes), programs


class TestValidation:
    def test_machine_rejects_many_to_one_mapping(self):
        config, mapping, programs = many_to_one()
        with pytest.raises(SimulationError, match="expected 16"):
            Machine(config, mapping, programs)

    @needs_core
    def test_batch_machine_rejects_many_to_one_mapping(self):
        config, mapping, programs = many_to_one()
        with pytest.raises(SimulationError, match="expected 16"):
            BatchMachine(config, mapping, programs, (config.seed,))

    @pytest.mark.parametrize(
        "switching",
        [pytest.param("cut_through", marks=needs_core), "wormhole"],
    )
    def test_run_batch_rejects_many_to_one_mapping(self, switching):
        config, mapping, programs = many_to_one(switching)
        # Cut-through takes the core route, wormhole the serial one.
        assert core_runs(config, programs, None) is (switching == "cut_through")
        with pytest.raises(SimulationError, match="expected 16"):
            run_batch(config, mapping, programs, (config.seed, config.seed + 1))

    def test_wrong_thread_count_rejected(self):
        config = SimulationConfig(radix=4, dimensions=2, contexts=2)
        graph = ring_graph(48)  # neither 16 nor 32
        programs = build_programs(graph, 1, 8, 0.5)
        mapping = Mapping(
            assignment=tuple(i % 16 for i in range(48)), processors=16
        )
        with pytest.raises(SimulationError):
            Machine(config, mapping, programs)

    def test_one_instance_per_context_runs(self):
        config = SimulationConfig(
            radix=4, dimensions=2, contexts=2,
            warmup_network_cycles=500, measure_network_cycles=2000,
        )
        graph = torus_neighbor_graph(4, 2)
        programs = build_programs(graph, 2, config.compute_cycles, 0.5)
        machine = Machine(config, identity_mapping(16), programs)
        assert machine.run().remote_transactions > 0
