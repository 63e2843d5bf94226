"""Pipelined cut-through torus fabric (buffered switches).

The Alewife switches provide "a moderate amount of buffering" (Section
3.1), which moves their behavior away from pure single-flit-buffer
wormhole (where a stalled head freezes its whole worm across many
channels, amplifying contention through blocking trees) toward virtual
cut-through: a blocked message accumulates in switch buffers, holding
each channel only for the ``B`` cycles its flits actually cross it.

This fabric models that regime: each channel is a FIFO server with
service time ``B`` (the message's flits), and the head moves one switch
per cycle when un-contended.  Zero-load latency is ``d + B + 1`` network
cycles (one injection hop, ``d`` switch hops, ejection + drain), matching
the analytical model's ``d * T_h + B`` to within a cycle, and channel
queueing matches the model's contention term far better than the rigid
worm does — which is precisely why it is the default for the Section 3
validation runs.  The rigid-worm fabric (:mod:`repro.sim.wormhole`)
remains available via ``SimulationConfig(switching="wormhole")`` and is
compared against this one in the buffering ablation benchmark.

E-cube routing is shared with the wormhole fabric; no virtual channels
are needed here because a message occupying a channel always drains into
the next switch's buffer — channel holds are time-bounded, so the torus
ring cycle cannot deadlock.

**Implementation.**  The channel population is fixed by the torus
geometry, so channel ids are arithmetic: injection ``s``, ejection
``N + d``, and link ``2N + 2 * (node * n + dim) + (step == -1)``.
Routes are computed from node ids in that form (:meth:`_route_ids`,
pinned to the key form of :meth:`build_route`) and cached per endpoint
pair.  Per-channel state (busy-until cycle, link flit totals) lives in
flat int lists indexed by channel id, replacing the original
implementation's tuple-keyed dicts.
Channel grants are order-independent within a cycle *as decisions* — a
channel grants iff it is free, and a channel a hop enqueues on is first
examined the next cycle — but the order grants *apply* determines FIFO
arrival order on downstream queues, so the tick
walks the ordered pending list, where each channel's grant condition is
one list read and one int compare (measured faster at this channel
count than gathering the grantable set with vectorized numpy compares,
which this fabric went through an iteration of) and a grant moves the
transit to its next channel inline.  The seeded
golden-parity tests pin this to the original implementation's recorded
runs cycle for cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.message import Message
from repro.sim.telemetry import FabricTelemetry, TelemetryConfig
from repro.topology.torus import Torus

__all__ = ["Transit", "CutThroughFabric", "link_keys"]

ChannelKey = Tuple


@dataclass(slots=True)
class Transit:
    """One message's passage through the fabric (delivery record).

    ``route`` holds dense channel ids (the key form is available from
    :meth:`CutThroughFabric.build_route`); it is borrowed from the
    fabric's route cache and must not be mutated.
    """

    message: Message
    route: List[int]
    #: Index of the next route channel to acquire.
    next_hop: int = 0
    #: Cycles spent queued at the source's injection channel.
    source_wait: int = 0

    @property
    def hops(self) -> int:
        """Switch-to-switch hops (route minus injection/ejection)."""
        return len(self.route) - 2

    @property
    def flits(self) -> int:
        return self.message.flits


def link_keys(torus: Torus) -> List[Tuple[int, int, int]]:
    """Every physical link as ``(node, dimension, step)``, by link id.

    Node-major, then dimension, then the ``+1`` direction before ``-1``:
    link id ``i`` is channel ``2N + i``.
    """
    return [
        (node, dim, step)
        for node in torus.nodes()
        for dim in range(torus.dimensions)
        for step in (1, -1)
    ]


class CutThroughFabric:
    """Cycle-driven cut-through network with per-channel FIFO queueing."""

    def __init__(self, torus: Torus, on_delivery: Callable[[Transit], None]):
        self.torus = torus
        self.on_delivery = on_delivery

        nodes = torus.node_count
        #: First link channel id; injection ids lie below ``N``, ejection
        #: ids in ``[N, 2N)``.
        self._link_base = 2 * nodes
        count = self._link_base + 2 * nodes * torus.dimensions
        #: One shared int object per channel id, so cached routes index
        #: into it instead of each holding its own copies.
        self._channel_ids = list(range(count))
        #: Cycle each channel is busy until (exclusive).
        self._free_at = [0] * count
        #: Per-channel FIFO of waiting transits; ``None`` while empty, so
        #: an idle channel costs no list.
        self._queues: List[Optional[List[Transit]]] = [None] * count
        #: Flits pushed across each physical link, by link id (a plain
        #: list: the counter is bumped one scalar at a time on grants,
        #: where list indexing beats numpy scalar indexing).
        self._link_flit_counts = [0] * (count - self._link_base)

        self._route_cache: Dict[Tuple[int, int], List[int]] = {}
        #: Channels with queued traffic, in activation order.
        self._pending: List[int] = []
        self._deliveries: Dict[int, List[Transit]] = {}
        #: Transits sitting in ``_deliveries``; lets the tick skip the
        #: per-cycle dict pop entirely while nothing is scheduled.
        self._delivery_count = 0
        self._in_flight = 0
        self.delivered_count = 0
        #: Optional per-channel instrumentation (see :mod:`..telemetry`).
        self._telemetry: Optional[FabricTelemetry] = None

    # ------------------------------------------------------------------
    # Routing.
    # ------------------------------------------------------------------

    def build_route(self, source: int, destination: int) -> List[ChannelKey]:
        """E-cube route, injection and ejection channels inclusive."""
        if source == destination:
            raise SimulationError(
                f"messages to self must not enter the network (node {source})"
            )
        route: List[ChannelKey] = [("inj", source)]
        for node, dim, step in self.torus.route_hops(source, destination):
            route.append(("link", node, dim, step))
        route.append(("ej", destination))
        return route

    def _route_ids(self, source: int, destination: int) -> List[int]:
        """Channel ids of the e-cube route, memoized per endpoint pair.

        Computed arithmetically, channel for channel what
        :meth:`build_route` spells as keys: it walks node ids
        incrementally (``+/- stride``, or the ``(k - 1) * stride`` jump
        at the wraparound) without coordinate tuples or key lookups.
        Routes are a pure function of the pair and transits never
        mutate them, so the cached list is shared.
        """
        pair = (source, destination)
        route = self._route_cache.get(pair)
        if route is not None:
            return route
        if source == destination:
            raise SimulationError(
                f"messages to self must not enter the network (node {source})"
            )
        radix = self.torus.radix
        dims = self.torus.dimensions
        link_base = self._link_base
        ids = self._channel_ids
        route = [ids[source]]
        append = route.append
        node = source
        src_rem = source
        dst_rem = destination
        stride = 1
        for dim in range(dims):
            coord = src_rem % radix
            forward = (dst_rem % radix - coord) % radix
            src_rem //= radix
            dst_rem //= radix
            if forward:
                backward = radix - forward
                if forward <= backward:
                    # Positive direction (ties at half-way go positive).
                    for _ in range(forward):
                        append(ids[link_base + 2 * (node * dims + dim)])
                        if coord == radix - 1:
                            node -= (radix - 1) * stride
                            coord = 0
                        else:
                            node += stride
                            coord += 1
                else:
                    for _ in range(backward):
                        append(ids[link_base + 2 * (node * dims + dim) + 1])
                        if coord == 0:
                            node += (radix - 1) * stride
                            coord = radix - 1
                        else:
                            node -= stride
                            coord -= 1
            stride *= radix
        append(ids[self.torus.node_count + destination])
        self._route_cache[pair] = route
        return route

    # ------------------------------------------------------------------
    # Injection.
    # ------------------------------------------------------------------

    def inject(self, message: Message, cycle: int) -> None:
        """Queue ``message`` at its source's injection channel; ``cycle``
        is the current cycle (injection never runs ahead of the ticks)."""
        message.injected_at = cycle
        transit = Transit(
            message=message,
            route=self._route_ids(message.source, message.destination),
        )
        self._in_flight += 1
        channel = message.source
        queue = self._queues[channel]
        if queue:
            queue.append(transit)
        else:
            self._queues[channel] = [transit]
            self._pending.append(channel)

    # ------------------------------------------------------------------
    # Per-cycle advance.
    # ------------------------------------------------------------------

    def attach_telemetry(self, config: TelemetryConfig) -> FabricTelemetry:
        """Attach per-channel instrumentation (see :mod:`..telemetry`)."""
        if self._telemetry is not None:
            raise SimulationError("telemetry already attached to this fabric")
        links = len(self._link_flit_counts)
        self._telemetry = FabricTelemetry(
            config=config,
            channels=len(self._free_at),
            link_of=[-1] * self._link_base + list(range(links)),
            link_keys=self._link_keys,
            depth_probe=self._queue_depths,
            label="cut_through",
        )
        return self._telemetry

    def _queue_depths(self) -> List[int]:
        """Waiting messages per channel FIFO (telemetry epoch sampling)."""
        return [len(queue) if queue else 0 for queue in self._queues]

    def tick(self, cycle: int) -> None:
        # Telemetry epoch roll first (before deliveries and the empty-
        # pending early return), so boundaries sample end-of-previous-
        # cycle state.
        telemetry = self._telemetry
        if telemetry is not None and cycle >= telemetry.epoch_end:
            telemetry.roll_to(cycle)
        # Complete deliveries scheduled for this cycle.  Delivery
        # callbacks may inject replies, which land on self._pending
        # before it is read below — same-cycle eligibility, exactly as
        # the original implementation had it.
        if self._delivery_count:
            arrivals = self._deliveries.pop(cycle, None)
            if arrivals:
                self._delivery_count -= len(arrivals)
                for transit in arrivals:
                    transit.message.delivered_at = cycle
                    self.delivered_count += 1
                    self._in_flight -= 1
                    if telemetry is not None:
                        telemetry.record_delivery(
                            cycle - transit.message.injected_at
                        )
                    self.on_delivery(transit)

        # Grant channels.  Each channel serves one message at a time for
        # ``flits`` cycles; the head moves on after a single cycle.  A
        # channel grants iff it is free: an injected head is eligible the
        # cycle it joins, and a hop puts its next channel on the new
        # pending list, so that channel is first examined a cycle later.
        # Grants apply in pending order so downstream FIFO arrival order
        # matches the original implementation.  The state is dense int
        # lists indexed by channel id, so each pending channel costs one
        # list read and one int compare.
        pending = self._pending
        if not pending:
            return
        free_at = self._free_at
        queues = self._queues
        link_flit_counts = self._link_flit_counts
        link_base = self._link_base
        channel_flits = None if telemetry is None else telemetry.channel_flits
        new_pending: List[int] = []
        append = new_pending.append
        self._pending = new_pending
        for channel in pending:
            if free_at[channel] > cycle:
                append(channel)
                continue
            queue = queues[channel]
            transit = queue.pop(0)
            flits = transit.message.flits
            free_at[channel] = cycle + flits
            if channel_flits is not None:
                # Busy flit-cycles at grant time, every channel (the
                # service occupancy just booked into _free_at).
                channel_flits[channel] += flits
            hop = transit.next_hop
            if hop:
                link = channel - link_base
                if link >= 0:
                    link_flit_counts[link] += flits
            else:
                transit.source_wait = cycle - transit.message.injected_at
            hop += 1
            transit.next_hop = hop
            route = transit.route
            if hop < len(route):
                # The head reaches the next switch one cycle later.
                after = route[hop]
                after_queue = queues[after]
                if after_queue:
                    after_queue.append(transit)
                else:
                    queues[after] = [transit]
                    append(after)
            else:
                # Ejection granted at ``cycle``: the tail arrives after
                # all flits cross the ejection channel.
                self._deliveries.setdefault(cycle + flits, []).append(transit)
                self._delivery_count += 1
            if queue:
                append(channel)
            else:
                queues[channel] = None

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @cached_property
    def _link_keys(self) -> List[Tuple[int, int, int]]:
        """:func:`link_keys` of this fabric's torus, built on first use."""
        return link_keys(self.torus)

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
        return self._in_flight

    def quiescent(self) -> bool:
        return self._in_flight == 0

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Quiescence horizon: the earliest cycle a tick could do work.

        A pending channel grants exactly when it is past its busy-until
        cycle, which is frozen between grants — so with nothing
        grantable now, the fabric is provably inert until the earliest
        of those cycles or the earliest scheduled delivery.  This is
        what lets the machine engine jump clean over the ``B``-cycle
        drain windows of 24-flit data replies (and over heads queued
        behind them) in one step.  ``None`` means empty: ticks are
        no-ops until an injection.
        """
        earliest = min(self._deliveries) if self._delivery_count else None
        if self._pending:
            free_at = self._free_at
            for channel in self._pending:
                at = free_at[channel]
                if at <= cycle:
                    return cycle
                if earliest is None or at < earliest:
                    earliest = at
        return earliest
