"""Property tests: engine-vs-loop bit-equality over the config space.

The directed parity tests (tests/sim/test_machine_engine.py) pin the
canned workloads; these sample machine shapes — {1,2,3}-D tori, one
or two contexts, both fabrics, ``network_speedup ∈ {1, 2}``, light and
saturated loads — and require the event-calendar
engine to reproduce the per-cycle loop bit for bit: same summary dict,
same end state (every stats counter, each processor's stream state and
idle/switch counts, the fabric's delivery count), same telemetry
snapshot.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping.strategies import identity_mapping
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.sim.telemetry import TelemetryConfig
from repro.topology.graphs import torus_neighbor_graph
from repro.workload.synthetic import build_programs
from tests.sim.test_machine_engine import end_state


#: (dimensions, radix) pairs kept small enough for many examples.
SHAPES = [(1, 4), (1, 8), (2, 3), (2, 4), (3, 2), (3, 3)]


@st.composite
def machine_cases(draw):
    dimensions, radix = draw(st.sampled_from(SHAPES))
    return {
        "dimensions": dimensions,
        "radix": radix,
        "contexts": draw(st.integers(1, 2)),
        "compute": draw(st.sampled_from([8, 60, 400])),
        "switching": draw(st.sampled_from(["cut_through", "wormhole"])),
        "speedup": draw(st.sampled_from([1, 2])),
        "seed": draw(st.integers(0, 2**16)),
    }


def build(engine, case):
    config = SimulationConfig(
        radix=case["radix"],
        dimensions=case["dimensions"],
        contexts=case["contexts"],
        compute_cycles=case["compute"],
        switching=case["switching"],
        network_speedup=case["speedup"],
        seed=case["seed"],
    )
    graph = torus_neighbor_graph(case["radix"], case["dimensions"])
    programs = build_programs(
        graph, config.contexts, case["compute"], config.compute_jitter
    )
    mapping = identity_mapping(config.node_count)
    machine = Machine(config, mapping, programs, engine=engine)
    telemetry = machine.attach_telemetry(TelemetryConfig(epoch_cycles=100))
    return machine, telemetry


class TestEngineParityProperties:
    @settings(max_examples=20, deadline=None)
    @given(machine_cases())
    def test_engine_is_bit_identical_to_step_loop(self, case):
        loop, loop_tel = build(False, case)
        engine, engine_tel = build(True, case)
        loop_summary = loop.run(warmup=200, measure=800).as_dict()
        engine_summary = engine.run(warmup=200, measure=800).as_dict()
        assert loop_summary == engine_summary, {
            key: (loop_summary[key], engine_summary[key])
            for key in loop_summary
            if loop_summary[key] != engine_summary[key]
        }
        assert end_state(loop) == end_state(engine)
        assert loop_tel.snapshot() == engine_tel.snapshot()
