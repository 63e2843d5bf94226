"""A torus shift of the mapping leaves simulated measurements unchanged."""

import pytest

from repro.mapping.base import Mapping
from repro.mapping.strategies import identity_mapping
from repro.topology.graphs import torus_neighbor_graph
from repro.topology.torus import Torus


class TestRotation:
    def test_translation_invariance_of_measurements(self):
        # A torus shift must not change any measured quantity: the
        # machine is homogeneous.
        from repro.sim.config import SimulationConfig
        from repro.sim.machine import Machine
        from repro.workload.synthetic import build_programs

        torus = Torus(radix=4, dimensions=2)
        graph = torus_neighbor_graph(4, 2)
        config = SimulationConfig(
            radix=4, dimensions=2,
            warmup_network_cycles=500, measure_network_cycles=2500,
        )

        def run(mapping):
            programs = build_programs(graph, 1, config.compute_cycles, 0.5)
            return Machine(config, mapping, programs).run()

        base = run(identity_mapping(16))
        shift = [torus.node_at(((x + 1) % 4, (y + 2) % 4))
                 for x, y in map(torus.coordinates, torus.nodes())]
        shifted = run(Mapping(shift, 16))
        assert shifted.mean_message_hops == pytest.approx(
            base.mean_message_hops, abs=0.02
        )
        # Same distance structure -> statistically equivalent latency.
        assert shifted.mean_message_latency == pytest.approx(
            base.mean_message_latency, rel=0.1
        )
