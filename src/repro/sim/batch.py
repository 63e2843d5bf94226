"""Lockstep batched replication on the compiled core: R seeds, one pass.

Replication campaigns (:func:`repro.sim.replicate.run_replications`) run
the same machine configuration under many root seeds, and every seed
pays the full per-event Python interpreter cost of the serial engine.
Single simulations pay it too; the validation suite and the simulated
ablations run each of theirs as a one-seed batch,
``run_batch(config, mapping, programs, [config.seed])[0]``.
:class:`BatchMachine` runs ``R`` independent replications *together*:
one driver loop owns a merged event calendar over all replications, the
coherence controllers and cut-through fabric of every replication run
inside the compiled core (:mod:`repro.sim.batchcore`, a C port of
:class:`~repro.sim.coherence.CoherenceController` and
:class:`~repro.sim.cut_through.CutThroughFabric`), and Python keeps only
the processors.

**Bit-exactness contract.**  The serial machine is the oracle: for
every seed, the batched run's :class:`~repro.sim.stats.MeasurementSummary`
is identical to ``Machine(config.with_seed(seed), ...).run()``.  The
ingredients:

* **RNG streams.**  Replication ``r`` spawns its per-node streams as
  ``SeedSequence(seeds[r]).spawn(nodes)`` — exactly what a solo
  :class:`~repro.sim.machine.Machine` does — and the unmodified
  :class:`~repro.sim.processor.Processor` is reused per (rep, node), so
  draw order per replication is identical to a solo run by construction.
* **Event order.**  The driver ports :class:`~repro.sim.engine
  .MachineEngine`'s processor calendar exactly (boundary batches in
  ascending node order) and applies quiescence fast-forward *per
  replication*: the merged calendar holds one ``(next_cycle, rep)``
  entry per replication, so a quiescent replication is skipped to its
  next event while a busy one is stepped cycle by cycle.
* **Protocol and fabric order.**  The core executes the same protocol
  events at the same occupancy boundaries in the same FIFO order as the
  serial controller, and the same grant walk and delivery scheduling as
  the serial cut-through fabric.

:func:`run_batch` is the entry point.  It uses the core when it applies
— cut-through fabric, no telemetry, a torus the core can hold, and
:func:`repro.sim.batchcore.load` succeeds — and otherwise runs the seeds
as serial machines through the per-seed runner of
:mod:`repro.sim.replicate`, which returns the same summaries by the
contract above.  Wormhole and telemetry-attached batches go serial by
design of the input and stay quiet; a core that fails to load is the
one loud fallback (``batch.fallback`` counter plus a
:class:`BatchFallbackWarning`).
"""

from __future__ import annotations

import copy
import warnings
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import ParameterError, SimulationError
from repro.mapping.base import Mapping
from repro.sim import batchcore
from repro.sim.config import SimulationConfig
from repro.sim.machine import place_programs
from repro.sim.processor import Processor
from repro.sim.stats import MachineStats, MeasurementSummary
from repro.sim.telemetry import TelemetryConfig
from repro.topology.torus import Torus
from repro.workload.base import ThreadProgram

__all__ = ["BatchFallbackWarning", "BatchMachine", "run_batch"]


class BatchFallbackWarning(RuntimeWarning):
    """A batch the compiled core could run ran as serial machines."""


def _note_core_unavailable() -> None:
    """Record a core-to-serial fallback loudly (``pool.note_fallback``'s
    pattern).  The message is stable per process, so Python's default
    warning filter shows it once."""
    obs.REGISTRY.counter(
        "batch.fallback",
        help="core-eligible batches run as serial machines",
    ).inc()
    warnings.warn(
        "compiled batch core unavailable "
        f"({batchcore.load_failure() or 'not built'}); running the batch "
        "as serial machines",
        BatchFallbackWarning,
        stacklevel=3,
    )


def _link_keys(torus: Torus) -> List[Tuple[int, int, int]]:
    """Physical links in the core's link-counter order.

    Node-major, then dimension, then the ``+1`` direction before ``-1``
    — :class:`~repro.sim.cut_through.CutThroughFabric`'s channel order,
    so batched ``link_flits`` keys align with serial ones.
    """
    return [
        (node, dim, step)
        for node in torus.nodes()
        for dim in range(torus.dimensions)
        for step in (1, -1)
    ]


# Python keeps the processors — their RNG draw order defines
# bit-exactness — and talks to the core through two small shims: a
# per-(rep, node) controller proxy for the processor-facing calls, and a
# per-rep fabric view for link-flit snapshots.


class _CoreController:
    """Processor-facing view of one (replication, node) core controller."""

    __slots__ = ("node", "_machine", "_rep", "_lib", "_core")

    def __init__(self, machine: "BatchMachine", rep_index: int, node: int):
        self.node = node
        self._machine = machine
        self._rep = rep_index
        self._lib = machine._lib
        self._core = machine._core

    def is_hit(self, block, is_write):
        machine = self._machine
        block_id = machine._block_ids.get(block)
        if block_id is None:
            block_id = machine._intern_block(block)
        return bool(
            self._lib.bc_is_hit(
                self._core, self._rep, self.node, block_id, is_write
            )
        )

    def record_access(self, block):
        block_id = self._machine._block_ids.get(block)
        if block_id is not None:
            self._lib.bc_record_access(
                self._core, self._rep, self.node, block_id
            )

    def request(self, block, is_write, cycle, callback):
        machine = self._machine
        block_id = machine._block_ids.get(block)
        if block_id is None:
            block_id = machine._intern_block(block)
        rep = machine._reps[self._rep]
        handle = rep.next_handle
        rep.next_handle = handle + 1
        rep.callbacks[handle] = callback
        self._lib.bc_request(
            self._core, self._rep, self.node, block_id, bool(is_write),
            cycle, handle,
        )


class _CoreFabricView:
    """Per-replication fabric introspection backed by core counters."""

    __slots__ = ("_machine", "_rep")

    def __init__(self, machine: "BatchMachine", rep_index: int):
        self._machine = machine
        self._rep = rep_index

    @property
    def link_flits(self) -> Dict[Tuple[int, int, int], int]:
        machine = self._machine
        buf = machine._link_buf
        machine._lib.bc_get_link_flits(machine._core, self._rep, buf)
        keys = machine._link_keys
        return {
            keys[i]: buf[i] for i in range(len(keys)) if buf[i]
        }

    @property
    def in_flight(self) -> int:
        machine = self._machine
        return machine._lib.bc_in_flight(machine._core, self._rep)


class _Rep:
    """Per-replication machine state tracked by the lockstep driver."""

    __slots__ = (
        "index", "processors", "stats", "fabric", "heap", "woken",
        "woken_flag", "last_tick", "idle_before", "switches_before",
        "callbacks", "next_handle",
    )


class BatchMachine:
    """R independent replications of one machine config, run in lockstep
    on the compiled core.

    Construction mirrors ``Machine(config.with_seed(seed), mapping,
    programs)`` per seed — per-replication program deep copies, per-node
    RNG streams spawned from each seed — with the route cache and
    thread-home table shared across replications inside the core.
    :meth:`run` is single-use and returns per-seed summaries in seed
    order, each bit-identical to the serial machine's.  Only cut-through
    machines without telemetry run here; :func:`run_batch` sends every
    other batch to serial machines.
    """

    def __init__(
        self,
        config: SimulationConfig,
        mapping: Mapping,
        programs: Sequence[Sequence[ThreadProgram]],
        seeds: Sequence[int],
    ):
        seeds = tuple(int(seed) for seed in seeds)
        if not seeds:
            raise ParameterError("need at least one replication seed")
        if config.switching != "cut_through":
            raise SimulationError(
                "the compiled batch core runs the cut_through fabric only; "
                f"got switching={config.switching!r} (run_batch runs it as "
                "serial machines)"
            )
        self.config = config
        self.seeds = seeds
        self.torus = Torus(radix=config.radix, dimensions=config.dimensions)
        nodes = self.torus.node_count
        # Validate the mapping/programs combination once, with the same
        # errors a solo Machine raises.
        place_programs(config, mapping, programs, nodes)
        self._homes = [mapping.processor_of(t) for t in range(mapping.threads)]
        self._link_keys = _link_keys(self.torus)
        self._block_ids: Dict[Tuple[int, int], int] = {}
        loaded = batchcore.load()
        if loaded is None:
            raise SimulationError(
                "the compiled batch core is unavailable: "
                f"{batchcore.load_failure() or 'not built'}"
            )
        ffi, lib = loaded
        core = lib.bc_create(
            len(seeds), nodes, config.dimensions, config.radix,
            config.cache_lines,
            config.to_network(config.request_cycles),
            config.to_network(config.receive_cycles),
            config.to_network(config.send_cycles),
            config.to_network(config.memory_cycles),
        )
        if core == ffi.NULL:
            raise SimulationError(
                f"the compiled batch core cannot hold a {config.radix}-ary "
                f"{config.dimensions}-D torus"
            )
        self._ffi = ffi
        self._lib = lib
        self._core = ffi.gc(core, lib.bc_destroy)
        self._link_buf = ffi.new("long long[]", len(self._link_keys))
        self._node_buf = ffi.new("long long[]", nodes)
        self._counter_buf = ffi.new("long long[12]")
        self._double_buf = ffi.new("double[1]")
        #: The engine this batch runs on; always ``"c"`` (the compiled
        #: core) — other batches never construct a BatchMachine.
        self.engine = "c"
        self._reps: List[_Rep] = []
        self._cycle = 0
        self._ran = False
        for index, seed in enumerate(seeds):
            rep = _Rep()
            rep.index = index
            rep.stats = MachineStats(nodes=nodes)
            rep.heap = []
            rep.woken = []
            rep.woken_flag = [False] * nodes
            rep.last_tick = [-1] * nodes
            rep.callbacks = {}
            rep.next_handle = 0
            rep.fabric = _CoreFabricView(self, index)
            # Per-replication program copies (programs are stateful) and
            # RNG streams, exactly as the serial replication path builds
            # them from config.with_seed(seed).
            _, programs_at = place_programs(
                config, mapping, copy.deepcopy(programs), nodes
            )
            node_seeds = np.random.SeedSequence(seed).spawn(nodes)
            rep.processors = [
                Processor(
                    node=node,
                    config=config,
                    controller=_CoreController(self, index, node),
                    programs=programs_at[node],
                    stats=rep.stats,
                    seed_seq=node_seeds[node],
                )
                for node in range(nodes)
            ]
            # Processor wake calendar (port of MachineEngine.__init__ at
            # cycle 0): every fresh processor is mid-run, so it lands on
            # the heap; the wake listener catches later idle wake-ups.
            wake = self._make_wake(rep)
            for processor in rep.processors:
                processor._wake_listener = wake
                distance = processor.next_event_ticks()
                if distance is not None:
                    heappush(rep.heap, (distance - 1, processor.node))
                elif processor._ready_count:  # pragma: no cover - defensive
                    rep.woken_flag[processor.node] = True
                    rep.woken.append(processor.node)
            self._reps.append(rep)

    # -- compiled-core plumbing ----------------------------------------

    def _intern_block(self, block: Tuple[int, int]) -> int:
        """Assign a dense core id to a block tuple (instance, thread)."""
        block_id = self._lib.bc_add_block(
            self._core, self._homes[block[1]]
        )
        self._block_ids[block] = block_id
        return block_id

    def _merge_core_stats(self, rep: _Rep) -> None:
        """Copy the core's measuring-gated counters into rep.stats."""
        lib = self._lib
        ints = self._counter_buf
        dbl = self._double_buf
        lib.bc_get_counters(self._core, rep.index, ints, dbl)
        stats = rep.stats
        stats.messages_sent = ints[0]
        stats.message_flits = ints[1]
        stats.message_flits_squared = ints[2]
        stats.messages_delivered = ints[3]
        stats.message_latency_total = ints[4]
        stats.message_hops_total = ints[5]
        stats.hop_latency_count = ints[6]
        stats.remote_started = ints[7]
        stats.remote_completed = ints[8]
        stats.local_completed = ints[9]
        stats.transaction_latency_total = ints[10]
        stats.cache_evictions_count = ints[11]
        stats.hop_latency_total = dbl[0]
        buf = self._node_buf
        lib.bc_get_per_node_sent(self._core, rep.index, buf)
        stats.per_node_messages = {
            node: buf[node]
            for node in range(self.torus.node_count)
            if buf[node]
        }

    @staticmethod
    def _make_wake(rep: _Rep):
        woken = rep.woken
        flag = rep.woken_flag

        def on_wake(processor):
            if (
                processor._active is None
                and processor._switch_remaining == 0
                and not flag[processor.node]
            ):
                flag[processor.node] = True
                woken.append(processor.node)

        return on_wake

    # ------------------------------------------------------------------
    # Run loop.
    # ------------------------------------------------------------------

    def run(
        self,
        warmup: Optional[int] = None,
        measure: Optional[int] = None,
    ) -> List[MeasurementSummary]:
        """Warm up, measure, and summarize every replication."""
        if self._ran:
            raise SimulationError(
                "BatchMachine.run is single-use; build a new instance per "
                "batch"
            )
        self._ran = True
        config = self.config
        warmup = config.warmup_network_cycles if warmup is None else warmup
        measure = config.measure_network_cycles if measure is None else measure
        reps = self._reps
        with obs.span(
            "sim.batch",
            reps=len(reps),
            warmup=warmup,
            measure=measure,
            nodes=self.torus.node_count,
        ):
            self._run_window(warmup)
            for rep in reps:
                rep.idle_before = [p.idle_cycles for p in rep.processors]
                rep.switches_before = sum(
                    p.switch_count for p in rep.processors
                )
                rep.stats.start_measuring(self._cycle, rep.fabric.link_flits)
                self._lib.bc_start_measuring(self._core, rep.index)
            self._run_window(measure)
            for rep in reps:
                rep.stats.stop_measuring(self._cycle)
                self._merge_core_stats(rep)
        if obs.is_enabled():
            # Machine.run's counter, booked once per replication.
            obs.REGISTRY.counter(
                "sim.cycles", help="network cycles simulated per machine"
            ).inc(len(reps) * (warmup + measure))
        physical_links = self.torus.node_count * 2 * self.torus.dimensions
        summaries = []
        for rep in reps:
            for processor in rep.processors:
                processor._wake_listener = None
            rep.stats.idle_cycles = sum(
                p.idle_cycles - before
                for p, before in zip(rep.processors, rep.idle_before)
            )
            rep.stats.switches = (
                sum(p.switch_count for p in rep.processors)
                - rep.switches_before
            )
            summary = rep.stats.summary(
                link_flits=rep.fabric.link_flits,
                physical_links=physical_links,
                network_speedup=config.network_speedup,
            )
            summaries.append(summary)
        return summaries

    def _run_window(self, cycles: int) -> None:
        """Advance every replication ``cycles`` network cycles: Python
        processors, C controllers and fabric.

        The per-cycle ctrl/fabric body lives in ``bc_advance``, which
        runs this replication up to the next *processor* boundary (the
        earliest processor-heap due tick or post-wake boundary) and
        additionally returns early whenever a cycle completed a memory
        transaction, so the Python side can run the completion
        callbacks — order-preserved, processor-state-only — and
        recompute the boundary.  Cycles the serial engine would visit
        idly are skipped inside the core with the same guards as
        :class:`~repro.sim.engine.MachineEngine` (ready controllers,
        controller wake heap, fabric horizon).
        """
        if cycles <= 0:
            return
        lib = self._lib
        core = self._core
        start = self._cycle
        end = start + cycles
        speedup = self.config.network_speedup
        reps = self._reps
        merged = [(start, index) for index in range(len(reps))]
        while merged and merged[0][0] < end:
            cycle, index = heappop(merged)
            rep = reps[index]
            heap = rep.heap
            if cycle % speedup == 0:
                tick = cycle // speedup
                batch: Optional[List[int]] = None
                while heap and heap[0][0] == tick:
                    node = heappop(heap)[1]
                    if batch is None:
                        batch = [node]
                    else:
                        batch.append(node)
                woken = rep.woken
                if woken:
                    if batch is None:
                        woken.sort()
                        batch = woken[:]
                    else:
                        batch.extend(woken)
                        batch.sort()
                    flag = rep.woken_flag
                    for node in woken:
                        flag[node] = False
                    woken.clear()
                if batch is not None:
                    processors = rep.processors
                    last_tick = rep.last_tick
                    for node in batch:
                        processor = processors[node]
                        gap = tick - last_tick[node] - 1
                        if gap > 0:
                            processor.skip_ticks(gap)
                        processor.tick(cycle)
                        last_tick[node] = tick
                        distance = processor.next_event_ticks()
                        if distance is not None:
                            heappush(heap, (tick + distance, node))
            # Advance ctrl + fabric in C up to the next processor
            # boundary (heap due or first post-wake boundary).
            stop = end
            if heap:
                due_at = heap[0][0] * speedup
                if due_at < stop:
                    stop = due_at
            if rep.woken:
                due_at = cycle + 1
                rem = due_at % speedup
                if rem:
                    due_at += speedup - rem
                if due_at < stop:
                    stop = due_at
            nxt = lib.bc_advance(core, index, stop)
            if nxt < 0:
                batchcore.raise_error(self._ffi, lib, core)
            count = lib.bc_comp_count(core, index)
            if count:
                buf = lib.bc_comp_ptr(core, index)
                pop = rep.callbacks.pop
                for i in range(count):
                    pop(buf[2 * i])(buf[2 * i + 1])
                lib.bc_comp_clear(core, index)
            if nxt < end:
                heappush(merged, (nxt, index))
        self._cycle = end
        tick = (end - 1) // speedup
        for rep in reps:
            last_tick = rep.last_tick
            for processor in rep.processors:
                node = processor.node
                gap = tick - last_tick[node]
                if gap > 0:
                    processor.skip_ticks(gap)
                    last_tick[node] = tick


def run_batch(
    config: SimulationConfig,
    mapping: Mapping,
    programs: Sequence[Sequence[ThreadProgram]],
    seeds: Sequence[int],
    warmup: Optional[int] = None,
    measure: Optional[int] = None,
    telemetry: Optional[TelemetryConfig] = None,
) -> List[MeasurementSummary]:
    """Run ``len(seeds)`` replications; summaries in seed order.

    Each summary (and telemetry snapshot, with a ``telemetry`` config)
    is bit-identical to the serial
    ``Machine(config.with_seed(seed), mapping, programs).run(...)`` for
    the same seed.  Cut-through batches without telemetry run in
    lockstep on the compiled core; every other batch runs as serial
    machines (see the module docstring for which fallbacks are loud).
    Programs are deep-copied per replication internally; callers pass
    the pristine originals.
    """
    if (
        config.switching == "cut_through"
        and telemetry is None
        and batchcore.fits(config.dimensions, config.radix)
    ):
        if batchcore.load() is not None:
            machine = BatchMachine(config, mapping, programs, seeds)
            return machine.run(warmup=warmup, measure=measure)
        _note_core_unavailable()
    # Deferred: repro.sim.replicate imports this module.
    from repro.sim.replicate import _run_single

    return [
        _run_single(
            (
                config,
                copy.deepcopy(mapping),
                copy.deepcopy(programs),
                int(seed),
                warmup,
                measure,
                False,
                telemetry,
            )
        )[0]
        for seed in seeds
    ]
