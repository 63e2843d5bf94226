"""Event-calendar machine engine: cycle-skipping whole-machine runs.

:meth:`repro.sim.machine.Machine.step` pays an O(nodes) Python scan on
every processor boundary even when almost every processor is mid
compute-run and the fabric is quiescent — exactly the light-traffic
regime the paper cares about.  This module replaces the per-cycle
per-node dispatch with an event calendar while staying **bit-identical**
to the step loop (same RNG draw order, same
:class:`~repro.sim.stats.MeasurementSummary`, same telemetry epochs; the
parity suite pins all of it):

* **Processor wake calendar.**  Between two "interesting" ticks — a run
  expiring into a memory access, a context switch completing, a wake-up
  after a transaction delivers — every ``Processor.tick`` is a pure
  countdown with no RNG draw and no external interaction.  The engine
  keeps a min-heap of ``(tick, node)`` wake entries (at most one per
  non-idle processor; completions only touch BLOCKED contexts, so
  entries never go stale), visits a processor only at its wake tick via
  ``skip_ticks(gap)`` + ``tick()``, and leaves idle processors entirely
  off the calendar — they re-enter through the ``_wake_listener`` hook
  when a transaction completes.  Due processors are visited in node
  order, then woken ones in wake order.  The step loop scans in node
  order, but the order within one boundary is unobservable: a processor
  tick touches only its own node's state, stream and controller queue,
  and controllers run in node order (``Machine._tick_controllers``).
  ``tests/sim/test_machine_engine.py`` pins parity on boundaries whose
  woken processors are out of node order.

* **Quiescence fast-forward.**  When no controller has runnable engine
  work, no processor wake-up is pending, and the fabric reports no
  activity before some horizon (``next_event_cycle``), the machine
  state cannot change until the earliest of: the next processor expiry,
  the next controller occupancy end, the fabric horizon, or the window
  end.  The engine jumps there in one assignment; telemetry epochs
  ending inside the span are closed before the jump (the frozen state
  samples identical zero busy deltas and unchanged queue depths, but
  the close must precede the target cycle's injections).

The step loop is retained verbatim (``Machine(engine=False)`` routes
``run`` through it) as the parity oracle.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional

__all__ = ["MachineEngine"]


class MachineEngine:
    """Event-calendar driver over one :class:`~repro.sim.machine.Machine`.

    Built per :meth:`Machine.run` call; picks up the machine wherever
    its step loop left it (processor state current through the last
    processor boundary before ``machine.cycle``) and leaves it in the
    same convention after every window, so summaries, window-boundary
    counter sampling, and any subsequent ``step()`` calls see exactly
    the state the per-cycle loop would have produced.
    """

    def __init__(self, machine):
        self.machine = machine
        self.speedup = machine.config.network_speedup
        processors = machine.processors
        cycle = machine._cycle
        # Boundaries already executed: every tick j with j*speedup <
        # cycle, so processor state is current through this tick index.
        base = (cycle - 1) // self.speedup if cycle > 0 else -1
        self._last_tick: List[int] = [base] * len(processors)
        self._heap: List = []
        #: Nodes woken by a completion while idle, to visit at the next
        #: processor boundary; ``_woken_flag`` dedups repeat wakes.
        self._woken: List[int] = []
        self._woken_flag: List[bool] = [False] * len(processors)
        for processor in processors:
            processor._wake_listener = self._on_wake
            distance = processor.next_event_ticks()
            if distance is not None:
                heappush(self._heap, (base + distance, processor.node))
            elif processor._ready_count:
                # Idle with runnable work (a wake landed between the
                # last boundary and now): due at the next boundary.
                self._woken_flag[processor.node] = True
                self._woken.append(processor.node)

    def _on_wake(self, processor) -> None:
        """Completion callback: re-calendar an idle processor.

        Computing/switching processors keep their (still exact) heap
        entry — the completion only made a context READY, which cannot
        move their next access.  Idle processors have no entry and are
        queued for the first boundary after the wake.
        """
        if (
            processor._active is None
            and processor._switch_remaining == 0
            and not self._woken_flag[processor.node]
        ):
            self._woken_flag[processor.node] = True
            self._woken.append(processor.node)

    def run_window(self, cycles: int) -> None:
        """Advance the machine ``cycles`` network cycles.

        Equivalent to ``for _ in range(cycles): machine.step()``; on
        return every processor is current through the window's last
        processor boundary (as the step loop leaves it), so callers can
        sample idle/switch counters between windows.
        """
        machine = self.machine
        fabric = machine.fabric
        speedup = self.speedup
        heap = self._heap
        woken = self._woken
        woken_flag = self._woken_flag
        last_tick = self._last_tick
        processors = machine.processors
        engine_ready = machine._engine_ready
        engine_wake = machine._engine_wake
        tick_controllers = machine._tick_controllers
        fabric_tick = fabric.tick
        next_event = getattr(fabric, "next_event_cycle", None)
        telemetry = machine.telemetry

        cycle = machine._cycle
        end = cycle + cycles
        while cycle < end:
            machine._cycle = cycle
            if cycle % speedup == 0:
                tick = cycle // speedup
                batch: Optional[List[int]] = None
                while heap and heap[0][0] == tick:
                    node = heappop(heap)[1]
                    if batch is None:
                        batch = [node]
                    else:
                        batch.append(node)
                if woken:
                    # Wakes target strictly-future boundaries, so every
                    # queued node is due now; idle processors carry no
                    # heap entry, so the two sources never overlap.
                    if batch is None:
                        batch = woken[:]
                    else:
                        batch.extend(woken)
                    for node in woken:
                        woken_flag[node] = False
                    woken.clear()
                if batch is not None:
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
            tick_controllers(cycle)
            fabric_tick(cycle)
            cycle += 1

            # Quiescence fast-forward: nothing can happen before the
            # earliest pending event, so jump straight to it.
            if engine_ready or woken:
                continue
            if next_event is not None:
                horizon = next_event(cycle)
            else:
                horizon = cycle if not fabric.quiescent() else None
            if horizon is not None and horizon <= cycle:
                continue
            target = end
            if heap:
                due = heap[0][0] * speedup
                if due < target:
                    target = due
            if engine_wake:
                due = min(engine_wake)
                if due < target:
                    target = due
            if horizon is not None and horizon < target:
                target = horizon
            if target > cycle:
                # Machine state is frozen across [cycle, target): close
                # any telemetry epochs ending inside the span now — the
                # step loop closes them at their boundary cycle, before
                # the target cycle's own injections can move the sampled
                # queue depths.
                if telemetry is not None and telemetry.epoch_end < target:
                    telemetry.roll_to(target - 1)
                cycle = target

        machine._cycle = end
        if cycles > 0:
            self._flush((end - 1) // speedup)

    def _flush(self, tick: int) -> None:
        """Bring every processor current through tick index ``tick``.

        Pending countdown ticks are applied in bulk; this cannot cross
        an access (all wake entries lie strictly beyond the window) nor
        a wake-up (idle gaps end at the woken visit, which is also
        beyond the window), so it is pure deferred accounting.
        """
        last_tick = self._last_tick
        for processor in self.machine.processors:
            node = processor.node
            gap = tick - last_tick[node]
            if gap > 0:
                processor.skip_ticks(gap)
                last_tick[node] = tick
