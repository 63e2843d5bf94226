"""Whole-machine assembly and the simulation run loop.

A :class:`Machine` wires together the torus fabric, one coherence
controller and one multithreaded processor per node, and the workload's
thread programs placed according to a thread-to-processor mapping.  Data
is allocated with its owning thread (Section 3.2's "single word of state
in local memory"), so the mapping simultaneously determines thread
placement and cache-line homes — changing the mapping is exactly how the
paper sweeps average communication distance.

The machine advances in network cycles; processors tick on every
``network_speedup``-th cycle.  A run consists of a warmup window (caches
fill, the protocol reaches steady state) followed by a measurement
window, after which :meth:`Machine.run` returns the
:class:`~repro.sim.stats.MeasurementSummary`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.mapping.base import Mapping
from repro.sim.coherence import Block, CoherenceController
from repro.sim.config import SimulationConfig
from repro.sim.cut_through import CutThroughFabric
from repro.sim.engine import MachineEngine
from repro.sim.message import Message
from repro.sim.processor import Processor
from repro.sim.stats import MachineStats, MeasurementSummary
from repro.sim.wormhole import WormholeFabric
from repro.topology.torus import Torus
from repro.workload.base import ThreadProgram, node_states

__all__ = ["Machine", "place_programs"]


def _controller_node(controller: CoherenceController) -> int:
    return controller.node


def place_programs(
    config: SimulationConfig,
    mapping: Mapping,
    programs: Sequence[Sequence[ThreadProgram]],
    node_count: int,
) -> List[List[ThreadProgram]]:
    """Validate a (mapping, programs) combination and place threads.

    Shared by :class:`Machine` and the batched replication engine
    (:mod:`repro.sim.batch`), so both accept exactly the same inputs with
    the same error messages: a bijection of ``node_count`` threads onto
    the nodes and one application instance per hardware context
    (Section 3.2).  Returns ``programs_at``, where ``programs_at[node]``
    lists thread ``mapping⁻¹(node)`` of every instance, one per context.
    """
    if mapping.processors != node_count:
        raise SimulationError(
            f"mapping targets {mapping.processors} processors; machine "
            f"has {node_count}"
        )
    if mapping.threads != node_count:
        raise SimulationError(
            f"mapping covers {mapping.threads} threads; expected "
            f"{node_count}, one per node"
        )
    mapping.require_bijective()
    if len(programs) != config.contexts:
        raise SimulationError(
            f"{len(programs)} program instances for "
            f"{config.contexts} contexts"
        )
    for instance in programs:
        if len(instance) != node_count:
            raise SimulationError(
                "every instance must provide one program per thread"
            )
    thread_at = np.empty(node_count, dtype=np.int64)
    thread_at[mapping.as_array()] = np.arange(node_count)
    return [
        [instance[thread] for instance in programs]
        for thread in thread_at.tolist()
    ]


class Machine:
    """A complete simulated multiprocessor.

    Parameters
    ----------
    config:
        Machine/protocol/measurement parameters.  ``config.switching``
        picks the fabric: :class:`~repro.sim.cut_through.CutThroughFabric`
        or :class:`~repro.sim.wormhole.WormholeFabric`.
    mapping:
        Thread-to-processor assignment: a bijection of the machine's
        nodes.  Each node runs the same-numbered thread of every
        application instance (the paper's arrangement, Section 3.2).  A
        mapping of more or fewer threads than nodes raises
        :class:`~repro.errors.SimulationError`, and one of as many
        threads that is not a bijection raises
        :class:`~repro.errors.MappingError`.
    programs:
        ``programs[instance][thread]`` — one
        :class:`~repro.workload.base.ThreadProgram` per (instance,
        thread), with one instance per hardware context:
        ``len(programs)`` must be ``config.contexts``.
    engine:
        Whether :meth:`run` uses the event-calendar engine
        (:mod:`repro.sim.engine`) instead of stepping every cycle.
        Defaults to on.  ``engine=False`` is the engine's oracle: the
        two paths are bit-identical (pinned by the parity suite) — the
        engine is purely a performance feature.
    """

    def __init__(
        self,
        config: SimulationConfig,
        mapping: Mapping,
        programs: Sequence[Sequence[ThreadProgram]],
        engine: bool = True,
    ):
        self.config = config
        self.torus = Torus(radix=config.radix, dimensions=config.dimensions)
        programs_at = place_programs(
            config, mapping, programs, self.torus.node_count
        )
        self.mapping = mapping
        self.stats = MachineStats(nodes=self.torus.node_count)
        if config.switching == "wormhole":
            self.fabric = WormholeFabric(self.torus, on_delivery=self._deliver)
        else:
            self.fabric = CutThroughFabric(self.torus, on_delivery=self._deliver)
        self._cycle = 0
        self.telemetry = None
        self.engine_enabled = bool(engine)

        # Event-driven engine scheduling: controllers whose engine went
        # from idle to busy this cycle land on ``_engine_ready`` (via the
        # wake callback — the list object's identity must be preserved),
        # and engines mid-occupancy are parked on the ``_engine_wake``
        # calendar keyed by their done-cycle, so ``step`` only ticks
        # controllers that actually have something to do.
        self._engine_ready: List[CoherenceController] = []
        self._engine_wake: Dict[int, List[CoherenceController]] = {}
        self.controllers: List[CoherenceController] = [
            CoherenceController(
                node=node,
                config=config,
                home_of=self._home_of,
                send=self._inject,
                stats=self.stats,
                wake=self._engine_ready.append,
            )
            for node in self.torus.nodes()
        ]
        self.processors: List[Processor] = []
        # One stream state per node from the documented root seed;
        # processors receive their state rather than deriving ad-hoc seeds.
        states = node_states(config.seed, self.torus.node_count).tolist()
        for node in self.torus.nodes():
            node_programs = programs_at[node]
            self.processors.append(
                Processor(
                    node=node,
                    config=config,
                    controller=self.controllers[node],
                    programs=node_programs,
                    stats=self.stats,
                    state=states[node],
                )
            )

    # ------------------------------------------------------------------
    # Wiring.
    # ------------------------------------------------------------------

    def _home_of(self, block: Block) -> int:
        """Blocks live with their owning thread."""
        _, thread = block
        return self.mapping.processor_of(thread)

    def _inject(self, message: Message) -> None:
        if message.destination == message.source:
            raise SimulationError(
                f"self-addressed message from node {message.source}; local "
                "transactions must complete without the network"
            )
        self.fabric.inject(message, self._cycle)

    def _deliver(self, transit) -> None:
        """Fabric delivery callback (Worm or Transit: same interface)."""
        message = transit.message
        self.stats.message_delivered(
            message, transit.hops, transit.source_wait
        )
        self.controllers[message.destination].deliver(message)

    # ------------------------------------------------------------------
    # Run loop.
    # ------------------------------------------------------------------

    def attach_telemetry(self, config) -> object:
        """Attach per-channel fabric telemetry (see :mod:`.telemetry`).

        Must be called before :meth:`run`; the resulting snapshot rides
        on the returned summary's ``telemetry`` attribute.
        """
        self.telemetry = self.fabric.attach_telemetry(config)
        return self.telemetry

    def step(self) -> None:
        """Advance the machine one network cycle (the per-cycle path).

        Retained unchanged in behavior as the event-calendar engine's
        parity oracle; idle accounting lives in ``Processor.tick`` (its
        own fast path), the single source of truth both drivers share.
        """
        cycle = self._cycle
        if cycle % self.config.network_speedup == 0:
            for processor in self.processors:
                processor.tick(cycle)
        self._tick_controllers(cycle)
        self.fabric.tick(cycle)
        self._cycle += 1

    def _tick_controllers(self, cycle: int) -> None:
        """Tick exactly the controllers with runnable engine work.

        That is: those woken by new work this cycle plus those whose
        occupancy ends now.  Node order is semantics — it fixes the
        order messages from different nodes enter the fabric within a
        cycle — so the batch is sorted before running.  Shared by
        :meth:`step` and the event-calendar engine.
        """
        due = self._engine_wake.pop(cycle, None)
        ready = self._engine_ready
        if ready:
            batch = ready[:] if due is None else due + ready
            ready.clear()  # keep list identity: controllers hold .append
        else:
            batch = due
        if batch is not None:
            if len(batch) > 1:
                batch.sort(key=_controller_node)
            wake = self._engine_wake
            for controller in batch:
                controller._notified = False
                controller.tick(cycle)
                if controller._engine_thunk is not None:
                    done = controller._engine_done_at
                    slot = wake.get(done)
                    if slot is None:
                        wake[done] = [controller]
                    else:
                        slot.append(controller)

    def run(
        self,
        warmup: Optional[int] = None,
        measure: Optional[int] = None,
    ) -> MeasurementSummary:
        """Warm up, measure, and summarize.

        ``warmup`` / ``measure`` override the config's windows (network
        cycles).  Idle/switch counters are sampled around the window so
        processor-level fractions are window-accurate.
        """
        warmup, measure = self.config.windows(warmup, measure)
        # One engine serves both windows; it leaves processor state
        # flushed to the last boundary after each window, so the
        # between-window counter sampling below reads exactly what the
        # per-cycle loop would have left.
        engine = MachineEngine(self) if self.engine_enabled else None
        # The run loop is the simulator's hottest path, so the
        # instrumentation wraps the warmup/measurement windows rather
        # than individual steps; cycle totals land on a registry counter.
        with obs.span(
            "sim.run",
            warmup=warmup,
            measure=measure,
            nodes=self.torus.node_count,
        ):
            with obs.span("sim.warmup", cycles=warmup):
                if engine is not None:
                    engine.run_window(warmup)
                else:
                    for _ in range(warmup):
                        self.step()

            idle_before = [p.idle_cycles for p in self.processors]
            switches_before = sum(p.switch_count for p in self.processors)
            self.stats.start_measuring(self._cycle, self.fabric.link_flits)

            with obs.span("sim.measure", cycles=measure):
                if engine is not None:
                    engine.run_window(measure)
                else:
                    for _ in range(measure):
                        self.step()

            self.stats.stop_measuring(self._cycle)
        if engine is not None:
            # Detach the wake hooks so later step() calls (or a fresh
            # engine on the next run) don't feed this engine's calendar.
            for processor in self.processors:
                processor._wake_listener = None
        if self.telemetry is not None:
            self.telemetry.finalize(self._cycle)
        if obs.is_enabled():
            obs.REGISTRY.counter(
                "sim.cycles", help="network cycles simulated per machine"
            ).inc(warmup + measure)
        self.stats.idle_cycles = sum(
            p.idle_cycles - before
            for p, before in zip(self.processors, idle_before)
        )
        self.stats.switches = (
            sum(p.switch_count for p in self.processors) - switches_before
        )
        return self.summary()

    def summary(self) -> MeasurementSummary:
        """Reduce the measured window to model-facing quantities."""
        physical_links = self.torus.node_count * 2 * self.torus.dimensions
        summary = self.stats.summary(
            link_flits=self.fabric.link_flits,
            physical_links=physical_links,
            network_speedup=self.config.network_speedup,
        )
        if self.telemetry is not None and self.telemetry.finalized:
            summary.telemetry = self.telemetry.snapshot()
        return summary

    @property
    def cycle(self) -> int:
        """Current network-cycle count."""
        return self._cycle
