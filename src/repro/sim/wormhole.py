"""Flit-level wormhole-routed torus fabric.

Implements the network of Section 3.1: a k-ary n-dimensional torus with a
pair of unidirectional channels between neighbors (one per direction),
e-cube (dimension-order) routing, single-cycle switch delay, and a pair
of injection/ejection channels connecting each node to its switch.
:class:`WormholeFabric` is the fabric ``SimulationConfig(switching=
"wormhole")`` machines and the :func:`repro.sim.telemetry.run_probe`
workloads run on; each delivered :class:`Worm` is passed to
``on_delivery`` (``message`` / ``hops`` / ``source_wait``).

**Worm model.**  A message of ``B`` flits is simulated as a rigid worm:
all of its flits advance in lockstep on each *movement cycle* (the head
acquiring the next channel, or — once the head has arrived — the
destination consuming one flit).  With single-flit switch buffers this is
exact: when the head stalls, every flit behind it stalls.  A channel is
held from the movement cycle its first flit crosses until all ``B`` flits
have crossed (``B`` movement cycles later), which reproduces the
``T_m = d * T_h + B`` structure of the analytical model: an unloaded
``d``-hop message takes ``d + 2`` cycles of head travel (the +2 being the
node's injection and ejection channels) plus ``B - 1`` cycles of drain.

**Deadlock freedom.**  E-cube routing alone deadlocks on torus *rings*
(cyclic channel dependencies around the wraparound), so each physical
channel carries two virtual channels with the standard dateline scheme:
a route uses VC 0 within a dimension until it crosses the ring's zero
boundary, VC 1 after.  VCs are modeled as independent channel resources;
the bandwidth this adds on dateline links is visible to the measured
utilization statistics (which count flits per *physical* link), keeping
comparisons against the analytical model honest.  Arbitration is
first-come-first-served per channel, with ties between channels resolved
in a fixed order — the simulator is fully deterministic given its
inputs.

**The movement invariant.**  Before a worm reaches its destination,
``moves`` increments exactly once per channel acquisition, and the
acquisition is recorded *before* the increment — so route channel ``i``
is always acquired at movement count ``i``.  Channel ``i`` is therefore
released exactly when ``moves >= i + flits``, and the drain/finish
checks only ever need the final acquisition's movement count, which
:attr:`Worm.last_acquire_move` carries.

**State.**  One Python object per worm, one deque per channel, and a
grant scan per cycle over the channels that have waiters, in the order
they gained one.  ``tests/sim/golden_parity.json`` pins full machine
runs and the four probe workloads against recorded history.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.message import Message
from repro.sim.telemetry import FabricTelemetry, TelemetryConfig
from repro.topology.torus import Torus

__all__ = ["Worm", "WormholeFabric"]

ChannelKey = Tuple
# Channel keys:
#   ("inj", node)                  node -> switch
#   ("ej", node)                   switch -> node
#   ("link", node, dim, step, vc)  switch -> neighboring switch


@dataclass(slots=True)
class Worm:
    """One message in flight through the fabric.

    ``route`` holds dense channel ids (the key form is available from
    :meth:`WormholeFabric.build_route`); it is borrowed from the
    fabric's route cache and must not be mutated.
    """

    message: Message
    route: List[int]
    #: Index of the most recently acquired route channel (-1 = none yet).
    head: int = -1
    #: Total movement cycles so far (each moves every flit one position).
    moves: int = 0
    #: Movement count when the most recent channel was acquired.  Equals
    #: ``head`` by the acquire-before-increment invariant (see module
    #: docstring); kept as an explicit field so the drain/finish checks
    #: read like the worm model they implement.
    last_acquire_move: int = -1
    #: Index of the first not-yet-released route channel.
    released: int = 0
    #: Cycle stamp of the last movement (prevents >1 hop per cycle).
    moved_at: int = -1
    #: Cycles spent queued at the source's injection channel.
    source_wait: int = 0
    #: Message size in flits, materialized once (hot in channel release).
    flits: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.flits = self.message.flits

    @property
    def hops(self) -> int:
        """Switch-to-switch hops (route minus injection/ejection)."""
        return len(self.route) - 2


class WormholeFabric:
    """The complete interconnect: channels, arbitration, worm movement.

    Parameters
    ----------
    torus:
        Machine geometry.
    on_delivery:
        Callback invoked with each completed :class:`Worm` when
        its tail flit has fully arrived at the destination node (the
        worm carries the message plus hop/wait accounting).

    ``stall_limit`` is a safety net: if no worm moves for this many
    consecutive cycles while traffic is in flight, a
    :class:`SimulationError` is raised (this would indicate a
    routing-deadlock bug, which the dateline VCs are there to prevent).
    """

    stall_limit = 10000

    def __init__(self, torus: Torus, on_delivery: Callable[["Worm"], None]):
        self.torus = torus
        self.on_delivery = on_delivery

        # Enumerate every channel: injection and ejection per node, two
        # virtual channels per directed link.
        self._channel_index: Dict[ChannelKey, int] = {}
        self._link_keys: List[Tuple[int, int, int]] = []
        link_index: Dict[Tuple[int, int, int], int] = {}
        link_of: List[int] = []
        for node in torus.nodes():
            self._channel_index[("inj", node)] = len(link_of)
            link_of.append(-1)
        for node in torus.nodes():
            self._channel_index[("ej", node)] = len(link_of)
            link_of.append(-1)
        for node in torus.nodes():
            for dim in range(torus.dimensions):
                for step in (1, -1):
                    link = (node, dim, step)
                    link_index[link] = len(self._link_keys)
                    self._link_keys.append(link)
                    for vc in (0, 1):
                        key = ("link", node, dim, step, vc)
                        self._channel_index[key] = len(link_of)
                        link_of.append(link_index[link])
        count = len(link_of)
        self._link_of = link_of
        self._owner: List[Optional[Worm]] = [None] * count
        self._queues: List[Deque[Worm]] = [
            deque() for _ in range(count)
        ]
        self._in_pending: List[bool] = [False] * count
        self._pending_keys: List[int] = []
        self._draining: List[Worm] = []
        self._stall_cycles = 0
        self._owned_count = 0
        self._queued_count = 0
        #: Flits crossed per physical link, by link id.
        self._link_flit_counts = [0] * len(self._link_keys)
        self._route_cache: Dict[Tuple[int, int], List[int]] = {}
        self.delivered_count = 0
        #: Optional per-channel instrumentation (see :mod:`..telemetry`).
        self._telemetry: Optional[FabricTelemetry] = None

    # ------------------------------------------------------------------
    # Route construction.
    # ------------------------------------------------------------------

    def build_route(self, source: int, destination: int) -> List[ChannelKey]:
        """E-cube route with dateline VC assignment, inj/ej inclusive."""
        if source == destination:
            raise SimulationError(
                f"messages to self must not enter the network (node {source})"
            )
        route: List[ChannelKey] = [("inj", source)]
        radix = self.torus.radix
        current_vc_dim = -1
        vc = 0
        for node, dim, step in self.torus.route_hops(source, destination):
            if dim != current_vc_dim:
                current_vc_dim = dim
                vc = 0
            coordinate = self.torus.coordinates(node)[dim]
            route.append(("link", node, dim, step, vc))
            # Crossing the ring's zero boundary switches to VC 1 for the
            # rest of this dimension (the dateline rule).
            wraps = (step == 1 and coordinate == radix - 1) or (
                step == -1 and coordinate == 0
            )
            if wraps:
                vc = 1
        route.append(("ej", destination))
        return route

    def _route_ids(self, source: int, destination: int) -> List[int]:
        """The channel-id route, memoized per (source, destination)."""
        pair = (source, destination)
        route = self._route_cache.get(pair)
        if route is None:
            index = self._channel_index
            route = [
                index[key] for key in self.build_route(source, destination)
            ]
            self._route_cache[pair] = route
        return route

    # ------------------------------------------------------------------
    # Injection.
    # ------------------------------------------------------------------

    def inject(self, message: Message, cycle: int) -> None:
        """Queue a message at its source node's injection channel."""
        message.injected_at = cycle
        worm = Worm(message=message, route=self._route_ids(
            message.source, message.destination
        ))
        self._enqueue(worm, worm.route[0])

    def _enqueue(self, worm: Worm, channel: int) -> None:
        if not self._in_pending[channel]:
            self._in_pending[channel] = True
            self._pending_keys.append(channel)
        self._queues[channel].append(worm)
        self._queued_count += 1

    # ------------------------------------------------------------------
    # Per-cycle advance.
    # ------------------------------------------------------------------

    def attach_telemetry(self, config: TelemetryConfig) -> FabricTelemetry:
        """Attach per-channel instrumentation (see :mod:`..telemetry`)."""
        if self._telemetry is not None:
            raise SimulationError("telemetry already attached to this fabric")
        self._telemetry = FabricTelemetry(
            config=config,
            channels=len(self._owner),
            link_of=self._link_of,
            link_keys=self._link_keys,
            depth_probe=self._queue_depths,
            label="wormhole",
        )
        return self._telemetry

    def _queue_depths(self) -> List[int]:
        """Waiting worms per channel FIFO (telemetry epoch sampling)."""
        if not self._queued_count:
            # Every FIFO is empty: skip the per-channel sweep.
            return [0] * len(self._queues)
        return [len(queue) for queue in self._queues]

    def tick(self, cycle: int) -> None:
        """Advance the fabric by one network cycle."""
        # Telemetry epoch roll first, so boundaries sample end-of-
        # previous-cycle state.
        telemetry = self._telemetry
        if telemetry is not None and cycle >= telemetry.epoch_end:
            telemetry.roll_to(cycle)
        progressed = False

        # Phase 1: drain worms whose heads have arrived; the destination
        # consumes one flit per cycle unconditionally, releasing tail
        # channels as they complete.
        if self._draining:
            still_draining: List[Worm] = []
            for worm in self._draining:
                worm.moves += 1
                worm.moved_at = cycle
                self._release_completed(worm)
                progressed = True
                # Draining worms are at destination by construction: a
                # worm is delivered once its tail arrives.
                if worm.moves >= worm.last_acquire_move + worm.flits:
                    self._finish(worm, cycle)
                else:
                    still_draining.append(worm)
            self._draining = still_draining

        # Phase 2: grant free channels to the first eligible waiter.  A
        # worm moves at most one hop per cycle (checked via moved_at).
        # _enqueue appends to self._pending_keys DURING this loop (a
        # grant feeding the worm's next channel); those entries must be
        # visited this same cycle so they land in remaining_keys — the
        # index-based loop preserves that.
        pending = self._pending_keys
        remaining_keys: List[int] = []
        owner = self._owner
        queues = self._queues
        index = 0
        while index < len(pending):
            channel = pending[index]
            index += 1
            queue = queues[channel]
            if not queue:
                self._in_pending[channel] = False
                continue
            head_worm = queue[0]
            if owner[channel] is not None or head_worm.moved_at == cycle:
                remaining_keys.append(channel)
                continue
            queue.popleft()
            self._queued_count -= 1
            self._advance(head_worm, channel, cycle)
            progressed = True
            if queue:
                remaining_keys.append(channel)
            else:
                self._in_pending[channel] = False
        self._pending_keys = remaining_keys

        # Deadlock safety net.
        in_flight = bool(
            self._owned_count or self._queued_count or self._draining
        )
        if in_flight and not progressed:
            self._stall_cycles += 1
            if self._stall_cycles >= self.stall_limit:
                raise SimulationError(
                    f"network made no progress for {self.stall_limit} cycles "
                    f"with {self._owned_count} channels held — routing "
                    "deadlock or arbitration bug"
                )
        else:
            self._stall_cycles = 0

    def _advance(self, worm: Worm, channel: int, cycle: int) -> None:
        """Grant ``channel`` to ``worm`` and account the movement."""
        self._owner[channel] = worm
        self._owned_count += 1
        worm.head += 1
        if worm.head == 0:
            worm.source_wait = cycle - worm.message.injected_at
        worm.last_acquire_move = worm.moves
        worm.moves += 1
        worm.moved_at = cycle
        link = self._link_of[channel]
        if link >= 0:
            # The message will push exactly ``flits`` flits through this
            # physical link; account them at acquisition time (utilization
            # statistics are window averages, so the timing skew of at
            # most B cycles is negligible).
            self._link_flit_counts[link] += worm.flits
        if self._telemetry is not None:
            # Same acquisition-time convention, every channel (inj/ej
            # included) — busy flit-cycles for the telemetry epochs.
            self._telemetry.channel_flits[channel] += worm.flits
        self._release_completed(worm)
        if worm.head == len(worm.route) - 1:
            if worm.moves >= worm.last_acquire_move + worm.flits:
                self._finish(worm, cycle)  # single-flit full arrival
            else:
                self._draining.append(worm)
        else:
            self._enqueue(worm, worm.route[worm.head + 1])

    def _release_completed(self, worm: Worm) -> None:
        """Free route channels whose ``flits`` transfers have completed.

        Channel ``i`` was acquired at movement count ``i`` (see the
        module docstring), so it completes once ``moves >= i + flits``.
        """
        while (
            worm.released <= worm.head
            and worm.moves >= worm.released + worm.flits
        ):
            channel = worm.route[worm.released]
            owner = self._owner[channel]
            self._owner[channel] = None
            self._owned_count -= 1
            if owner is not worm:
                raise SimulationError(
                    f"channel {channel} released by non-owner worm "
                    f"{worm.message.uid}"
                )
            worm.released += 1

    def _finish(self, worm: Worm, cycle: int) -> None:
        """Release any remaining channels and deliver the message."""
        while worm.released <= worm.head:
            channel = worm.route[worm.released]
            owner = self._owner[channel]
            self._owner[channel] = None
            self._owned_count -= 1
            if owner is not worm:
                raise SimulationError(
                    f"channel {channel} held by wrong worm at delivery"
                )
            worm.released += 1
        worm.message.delivered_at = cycle
        self.delivered_count += 1
        if self._telemetry is not None:
            self._telemetry.record_delivery(
                cycle - worm.message.injected_at
            )
        self.on_delivery(worm)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def link_flits(self) -> Dict[Tuple[int, int, int], int]:
        """Flits crossed per physical link (links with traffic only)."""
        keys = self._link_keys
        return {
            keys[i]: count
            for i, count in enumerate(self._link_flit_counts)
            if count
        }

    @property
    def in_flight(self) -> int:
        """Worms currently traversing or queued in the fabric."""
        worms = set()
        for queue in self._queues:
            if queue:
                worms.update(id(w) for w in queue)
        for worm in self._owner:
            if worm is not None:
                worms.add(id(worm))
        worms.update(id(w) for w in self._draining)
        return len(worms)

    def quiescent(self) -> bool:
        """True when no traffic is anywhere in the fabric."""
        return not (
            self._owned_count or self._queued_count or self._draining
        )

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Quiescence horizon: the earliest cycle a tick could do work.

        ``cycle`` while any worm is anywhere in the fabric; ``None``
        when empty (an idle tick resets a stall counter that is already
        zero, so skipping it is exact).
        """
        return None if self.quiescent() else cycle
