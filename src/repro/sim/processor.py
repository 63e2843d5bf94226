"""Block-multithreaded processor model (Sparcle-like).

Each processor has ``p`` hardware contexts, each running one application
thread.  A context computes for its program-determined run length, then
performs a memory access; cache hits cost ``HIT_CYCLES`` (one) cycle and
execution continues, while misses hand the access to the coherence
controller and block the context.  On a miss, the processor switches to
another runnable context if one exists, paying the ``T_s``-cycle context
switch; with no runnable context it idles until a transaction completes
(resuming the same context is free, matching the paper's single-context
model where ``t_t = T_r + T_t`` has no switch term).

The processor ticks once per *processor* cycle; the machine driver calls
:meth:`tick` only on processor-cycle boundaries of the network clock.

**RNG streams.**  Every per-node stream derives from one documented root
seed: node ``i``'s state is the first 64-bit word of
``numpy.random.SeedSequence(root_seed).spawn(nodes)[i]``, so a
replication's entire stream family is reproducible from (and recorded
as) the root seed alone.  :func:`~repro.workload.base.node_states` is the
numpy-exact derivation of all ``N`` states in one vectorized pass; the
machine computes them once and hands each processor its state.  The
state keys the model stream, a :class:`~repro.workload.base.NodeStream`
(SplitMix64); the stream and the run-length jitter rule are model rules,
so the compiled batch core draws the same values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import SimulationError
from repro.sim.coherence import CoherenceController
from repro.sim.config import HIT_CYCLES, SWITCH_CYCLES, SimulationConfig
from repro.workload.base import NodeStream, ThreadProgram

__all__ = ["ContextState", "HardwareContext", "Processor"]


class ContextState(enum.Enum):
    """Lifecycle of one hardware context (see HardwareContext)."""

    COMPUTING = "computing"
    BLOCKED = "blocked"      # waiting for a coherence transaction
    READY = "ready"          # transaction done, waiting for the processor


@dataclass(slots=True)
class HardwareContext:
    """One hardware context and the thread it runs.

    ``READY`` means runnable but not currently executing (fresh contexts
    start READY; blocked contexts return to READY when their transaction
    completes); exactly one context at a time is ``COMPUTING``.
    """

    index: int
    program: ThreadProgram
    state: ContextState = ContextState.READY
    remaining_cycles: int = 0


class Processor:
    """A ``p``-context processor attached to one coherence controller."""

    def __init__(
        self,
        node: int,
        config: SimulationConfig,
        controller: CoherenceController,
        programs: List[ThreadProgram],
        stats,
        state: int,
    ):
        if len(programs) != config.contexts:
            raise SimulationError(
                f"node {node}: {len(programs)} programs for "
                f"{config.contexts} contexts"
            )
        self.node = node
        self.controller = controller
        self.stats = stats
        # Deterministic per-node stream, keyed by the state the root seed
        # derives for this node (see module docstring).
        self.rng = NodeStream(state)
        self.contexts = [
            HardwareContext(index=i, program=program)
            for i, program in enumerate(programs)
        ]
        for context in self.contexts:
            context.remaining_cycles = context.program.compute_cycles(self.rng)
        self.contexts[0].state = ContextState.COMPUTING
        self._active: Optional[int] = 0
        self._switch_remaining = 0
        self._switch_target: Optional[int] = None
        #: READY contexts, tracked so the idle fast path in tick() can
        #: skip the round-robin scan entirely (most ticks on a stalled
        #: node find nothing runnable).
        self._ready_count = len(self.contexts) - 1
        #: Event-calendar hook (see :mod:`repro.sim.engine`): called with
        #: this processor whenever a transaction completion makes a
        #: context runnable, so a driver that skips idle processors
        #: knows to visit this one at the next processor boundary.
        #: ``None`` (the per-cycle driver) costs one branch per miss.
        self._wake_listener = None
        self.idle_cycles = 0
        self.switch_count = 0

    # ------------------------------------------------------------------
    # Per-processor-cycle step.
    # ------------------------------------------------------------------

    def tick(self, network_cycle: int) -> None:
        """Advance one processor cycle (called on clock boundaries)."""
        if self._switch_remaining > 0:
            self._switch_remaining -= 1
            if self._switch_remaining == 0:
                self._active = self._switch_target
                self._switch_target = None
            return

        if self._active is None:
            if self._ready_count == 0:
                self.idle_cycles += 1
                return
            ready = self._find_ready()
            # Waking from idle: free (pipeline was already drained); the
            # single-context model's t_t = T_r + T_t depends on this.
            self._active = ready
            self.contexts[ready].state = ContextState.COMPUTING
            self._ready_count -= 1

        context = self.contexts[self._active]
        if context.state is ContextState.READY:
            context.state = ContextState.COMPUTING
            self._ready_count -= 1
        if context.state is not ContextState.COMPUTING:
            raise SimulationError(
                f"node {self.node}: active context {self._active} in state "
                f"{context.state.value}"
            )

        if context.remaining_cycles > 0:
            context.remaining_cycles -= 1
            return

        # Run length exhausted: perform the next memory access.
        block, is_write = context.program.next_access(self.rng)
        if self.controller.is_hit(block, is_write):
            self.stats.cache_hit()
            context.remaining_cycles = (
                HIT_CYCLES + context.program.compute_cycles(self.rng)
            )
            return

        # Miss: start a coherence transaction and block this context.
        context.state = ContextState.BLOCKED
        index = context.index

        def on_complete(cycle: int, ctx: HardwareContext = context) -> None:
            ctx.state = ContextState.READY
            ctx.remaining_cycles = ctx.program.compute_cycles(self.rng)
            self._ready_count += 1
            if self._wake_listener is not None:
                self._wake_listener(self)

        self.controller.request(block, is_write, network_cycle, on_complete)
        self._leave_context(index)

    # ------------------------------------------------------------------
    # Event-calendar interface (see repro.sim.engine).
    # ------------------------------------------------------------------
    #
    # Between two "interesting" ticks — a run expiring into a memory
    # access, a switch completing into a fresh run, a wake-up after a
    # delivery — every tick() call is a pure countdown decrement (or an
    # idle increment) with no RNG draw and no external interaction.  The
    # two methods below let a driver account those ticks in bulk and
    # call tick() only at the boundaries where behavior can change,
    # bit-identically to ticking every cycle.

    def next_event_ticks(self) -> Optional[int]:
        """Processor ticks until the next tick() that is not a countdown.

        ``None`` means the processor is idle and will stay idle until a
        transaction completes (the ``_wake_listener`` hook fires then).
        The returned distance is immutable until that tick: completions
        only touch BLOCKED contexts, never the active run or a pending
        switch, so a scheduled wake can never go stale.
        """
        if self._switch_remaining > 0:
            # s countdown ticks (the s-th activates the target), then
            # the target's run, then the access on the following tick.
            target = self.contexts[self._switch_target]
            return self._switch_remaining + target.remaining_cycles + 1
        if self._active is not None:
            return self.contexts[self._active].remaining_cycles + 1
        return None

    def skip_ticks(self, ticks: int) -> None:
        """Apply ``ticks`` consecutive countdown ticks in one step.

        Exactly equivalent to calling :meth:`tick` ``ticks`` times
        *given* that none of those calls would reach an access or a
        wake-up — the driver guarantees this by never skipping past
        ``next_event_ticks()`` (nor past a wake notification, for idle
        processors).
        """
        if ticks <= 0:
            return
        switch = self._switch_remaining
        if switch > 0:
            take = ticks if ticks < switch else switch
            switch -= take
            ticks -= take
            self._switch_remaining = switch
            if switch == 0:
                self._active = self._switch_target
                self._switch_target = None
            if ticks == 0:
                return
        if self._active is not None:
            self.contexts[self._active].remaining_cycles -= ticks
        else:
            # Idle ticks; any READY context appeared strictly after the
            # skipped window (the engine visits a woken processor at the
            # first boundary past its wake), so these all counted idle.
            self.idle_cycles += ticks

    # ------------------------------------------------------------------
    # Context management.
    # ------------------------------------------------------------------

    def _find_ready(self) -> Optional[int]:
        """Round-robin scan for a runnable context."""
        start = (self._active + 1) if self._active is not None else 0
        count = len(self.contexts)
        for offset in range(count):
            candidate = (start + offset) % count
            if self.contexts[candidate].state is ContextState.READY:
                return candidate
        return None

    def _leave_context(self, index: int) -> None:
        """After a miss: switch to another runnable context or idle."""
        target = self._find_ready() if self._ready_count else None
        if target is None or target == index:
            self._active = None
            return
        self.switch_count += 1
        self._switch_remaining = SWITCH_CYCLES
        self._switch_target = target
        self._active = None
        self.contexts[target].state = ContextState.COMPUTING
        self._ready_count -= 1

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
