"""Tests for the event-calendar machine engine (repro.sim.engine).

The engine's contract is *bit-identity* with the retained per-cycle
step loop — same RNG draw order, same summary, same telemetry epochs,
same end state — so most tests here run the same configuration through
both drivers and compare everything observable.
The unit tests pin the calendar arithmetic the parity rests on:
``Processor.next_event_ticks`` / ``skip_ticks`` and the fabrics'
``next_event_cycle`` horizons.
"""

import pytest

from repro.mapping.strategies import identity_mapping
from repro.sim.batch import run_batch
from repro.sim.config import SimulationConfig
from repro.sim.cut_through import CutThroughFabric
from repro.sim.engine import MachineEngine
from repro.sim.machine import Machine
from repro.sim.message import Message, MessageKind
from repro.sim.telemetry import TelemetryConfig
from repro.sim.wormhole import WormholeFabric
from repro.topology.graphs import torus_neighbor_graph
from repro.topology.torus import Torus
from repro.workload.synthetic import build_programs


def make_machine(
    engine,
    radix=4,
    dimensions=2,
    contexts=1,
    compute=8,
    switching="cut_through",
    speedup=2,
    seed=7,
):
    config = SimulationConfig(
        radix=radix,
        dimensions=dimensions,
        contexts=contexts,
        compute_cycles=compute,
        switching=switching,
        network_speedup=speedup,
        seed=seed,
    )
    graph = torus_neighbor_graph(radix, dimensions)
    programs = build_programs(graph, contexts, compute, config.compute_jitter)
    mapping = identity_mapping(config.node_count)
    return Machine(config, mapping, programs, engine=engine)


def run_both(warmup=300, measure=1200, attach=False, **kw):
    """Run the same configuration through both drivers; return observables."""
    results = []
    for engine in (False, True):
        machine = make_machine(engine, **kw)
        telemetry = None
        if attach:
            telemetry = machine.attach_telemetry(
                TelemetryConfig(epoch_cycles=128)
            )
        summary = machine.run(warmup=warmup, measure=measure)
        results.append((machine, summary, telemetry))
    return results


def end_state(machine):
    """Everything a run leaves behind that both drivers must agree on."""
    return (
        vars(machine.stats),
        [
            (proc.rng.state, proc.idle_cycles, proc.switch_count)
            for proc in machine.processors
        ],
        machine.fabric.delivered_count,
    )


def assert_parity(results):
    (m_loop, s_loop, tel_loop), (m_eng, s_eng, tel_eng) = results
    loop, eng = s_loop.as_dict(), s_eng.as_dict()
    assert loop == eng, {
        key: (loop[key], eng[key]) for key in loop if loop[key] != eng[key]
    }
    assert end_state(m_loop) == end_state(m_eng)
    if tel_loop is not None:
        assert tel_loop.snapshot() == tel_eng.snapshot()


# ----------------------------------------------------------------------
# Processor wake-calendar arithmetic.
# ----------------------------------------------------------------------


class TestProcessorCalendar:
    def _advance(self, machine, predicate, limit=5000):
        """Step until some processor satisfies ``predicate``; return it."""
        for _ in range(limit):
            machine.step()
            for processor in machine.processors:
                if predicate(processor):
                    return processor
        raise AssertionError("no processor reached the wanted state")

    def test_computing_distance_is_remaining_plus_one(self):
        machine = make_machine(False)
        processor = machine.processors[0]
        remaining = processor.contexts[0].remaining_cycles
        assert processor.next_event_ticks() == remaining + 1

    def test_skip_ticks_burns_compute_countdown(self):
        machine = make_machine(False)
        processor = machine.processors[0]
        before = processor.contexts[0].remaining_cycles
        assert before > 3
        processor.skip_ticks(3)
        assert processor.contexts[0].remaining_cycles == before - 3

    def test_idle_processor_has_no_event(self):
        machine = make_machine(False, contexts=1)
        processor = self._advance(machine, lambda p: p._active is None)
        assert processor.next_event_ticks() is None
        idle_before = processor.idle_cycles
        processor.skip_ticks(5)
        assert processor.idle_cycles == idle_before + 5

    def test_switching_distance_spans_switch_and_target_run(self):
        machine = make_machine(False, contexts=2, compute=40)
        processor = self._advance(machine, lambda p: p._switch_remaining > 0)
        target = processor.contexts[processor._switch_target]
        expected = (
            processor._switch_remaining + target.remaining_cycles + 1
        )
        assert processor.next_event_ticks() == expected

    def test_skip_ticks_crosses_switch_completion(self):
        machine = make_machine(False, contexts=2, compute=40)
        processor = self._advance(machine, lambda p: p._switch_remaining > 0)
        switch = processor._switch_remaining
        target = processor._switch_target
        remaining = processor.contexts[target].remaining_cycles
        processor.skip_ticks(switch + 2)
        assert processor._switch_remaining == 0
        assert processor._active == target
        assert processor.contexts[target].remaining_cycles == remaining - 2

    def test_skip_zero_is_noop(self):
        machine = make_machine(False)
        processor = machine.processors[0]
        before = processor.contexts[0].remaining_cycles
        processor.skip_ticks(0)
        assert processor.contexts[0].remaining_cycles == before


# ----------------------------------------------------------------------
# Fabric quiescence horizons.
# ----------------------------------------------------------------------


def _message(source, destination, uid=0):
    return Message(MessageKind.READ_REQUEST, source, destination, (0, 0), uid)


class TestFabricHorizons:
    def test_cut_through_empty_fabric_has_no_horizon(self):
        fabric = CutThroughFabric(Torus(4, 2), on_delivery=lambda t: None)
        assert fabric.next_event_cycle(0) is None

    def test_cut_through_grantable_now_returns_cycle(self):
        fabric = CutThroughFabric(Torus(4, 2), on_delivery=lambda t: None)
        fabric.inject(_message(0, 1), 0)
        assert fabric.next_event_cycle(0) == 0

    def test_cut_through_horizon_skips_are_noops(self):
        """Every cycle below the reported horizon must be a no-op tick."""
        delivered = []
        fabric = CutThroughFabric(Torus(4, 2), on_delivery=delivered.append)
        fabric.inject(_message(0, 1, uid=0), 0)
        fabric.inject(_message(0, 2, uid=1), 0)  # queued behind uid=0
        cycle = 0
        while not fabric.quiescent():
            horizon = fabric.next_event_cycle(cycle)
            assert horizon is not None and horizon >= cycle
            if horizon > cycle:
                state = (
                    fabric.delivered_count,
                    list(fabric._pending),
                    list(fabric._free_at),
                )
                for noop in range(cycle, horizon):
                    fabric.tick(noop)
                assert state == (
                    fabric.delivered_count,
                    list(fabric._pending),
                    list(fabric._free_at),
                )
                cycle = horizon
            fabric.tick(cycle)
            cycle += 1
            assert cycle < 1000
        assert len(delivered) == 2

    def test_cut_through_drain_horizon_is_delivery_cycle(self):
        fabric = CutThroughFabric(Torus(4, 2), on_delivery=lambda t: None)
        fabric.inject(_message(0, 1), 0)
        cycle = 0
        while fabric._delivery_count == 0:
            fabric.tick(cycle)
            cycle += 1
        if not fabric._pending:
            assert fabric.next_event_cycle(cycle) == min(fabric._deliveries)

    def test_wormhole_horizon_is_busy_or_none(self):
        fabric = WormholeFabric(Torus(4, 2), on_delivery=lambda t: None)
        assert fabric.next_event_cycle(0) is None
        fabric.inject(_message(0, 1), 0)
        assert fabric.next_event_cycle(0) == 0


# ----------------------------------------------------------------------
# Engine wiring.
# ----------------------------------------------------------------------


class TestEngineWiring:
    def test_step_works_after_engine_run(self):
        machine = make_machine(True)
        machine.run(warmup=100, measure=400)
        cycle = machine.cycle
        machine.step()  # wake listeners must be detached
        assert machine.cycle == cycle + 1

    def test_second_run_stays_in_parity(self):
        loop = make_machine(False)
        engine = make_machine(True)
        first = (loop.run(warmup=200, measure=600).as_dict(),
                 engine.run(warmup=200, measure=600).as_dict())
        assert first[0] == first[1]
        second = (loop.run(warmup=0, measure=600).as_dict(),
                  engine.run(warmup=0, measure=600).as_dict())
        assert second[0] == second[1]

    def test_engine_resumes_mid_machine(self):
        """An engine built on a stepped machine picks up where it left off."""
        loop = make_machine(False)
        resumed = make_machine(False)
        for _ in range(137):  # not a processor-boundary multiple
            loop.step()
            resumed.step()
        engine = MachineEngine(resumed)
        engine.run_window(863)
        for _ in range(863):
            loop.step()
        for a, b in zip(loop.processors, resumed.processors):
            assert a.idle_cycles == b.idle_cycles
            assert a.switch_count == b.switch_count


# ----------------------------------------------------------------------
# Directed parity (the engine's whole contract).
# ----------------------------------------------------------------------


class TestParity:
    @pytest.mark.parametrize("switching", ["cut_through", "wormhole"])
    @pytest.mark.parametrize("speedup", [1, 2])
    def test_fabric_and_speedup_parity_with_instrumentation(
        self, switching, speedup
    ):
        assert_parity(
            run_both(switching=switching, speedup=speedup, attach=True)
        )

    @pytest.mark.parametrize("compute", [8, 400])
    @pytest.mark.parametrize("contexts", [1, 2])
    def test_load_parity(self, compute, contexts):
        assert_parity(run_both(compute=compute, contexts=contexts))

    @pytest.mark.parametrize("dimensions,radix", [(1, 8), (3, 3)])
    def test_torus_shape_parity(self, dimensions, radix):
        assert_parity(
            run_both(dimensions=dimensions, radix=radix, attach=True)
        )


class TestWokenOrder:
    """The engine visits a boundary's woken processors in wake order,
    not node order; the step loop scans in node order.  Parity on runs
    that reach such boundaries shows the order is unobservable."""

    @pytest.mark.parametrize("contexts", [1, 2])
    def test_out_of_order_wakes_keep_parity(self, monkeypatch, contexts):
        out_of_order = []
        on_wake = MachineEngine._on_wake

        def counting(engine, processor):
            on_wake(engine, processor)
            woken = engine._woken
            if len(woken) >= 2 and woken[-2] > woken[-1]:
                out_of_order.append(woken[-2:])

        monkeypatch.setattr(MachineEngine, "_on_wake", counting)
        results = run_both(contexts=contexts, speedup=2)
        assert out_of_order, "no boundary had woken processors out of order"
        assert_parity(results)
        # The compiled core visits them in the same order.
        machine, summary, _ = results[1]
        config = machine.config
        programs = build_programs(
            torus_neighbor_graph(4, 2), contexts, 8, config.compute_jitter
        )
        batched = run_batch(
            config, machine.mapping, programs, [config.seed],
            warmup=300, measure=1200,
        )
        assert batched[0].as_dict() == summary.as_dict()
