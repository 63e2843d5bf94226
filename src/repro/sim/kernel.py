"""Flit-level wormhole-routed torus fabric (array kernel).

Implements the network of Section 3.1: a k-ary n-dimensional torus with a
pair of unidirectional channels between neighbors (one per direction),
e-cube (dimension-order) routing, single-cycle switch delay, and a pair
of injection/ejection channels connecting each node to its switch.
:class:`FabricKernel` is the fabric ``SimulationConfig(switching=
"wormhole")`` machines run on; :class:`DeliveredWorm` is the delivery
record passed to ``on_delivery`` (``message`` / ``hops`` /
``source_wait``).

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

**Oracle.**  :class:`repro.sim.reference.ReferenceTorusFabric` is the
object-based implementation this kernel replaced, kept as its executable
specification: the parity suite (``tests/sim/test_kernel_parity.py``)
pins the kernel to it cycle for cycle, and the seeded golden fixture
does the same against recorded history.  The kernel computes the same
semantics over flat state instead of per-worm Python objects and
per-channel deque scans.

**State layout.**  Worms live in a structure-of-arrays pool indexed by a
slot id: flit counts, CSR route extents, head index, movement count,
moved-at stamp, queue link, and message, each a flat list (one scalar
per slot).  Freed slots are recycled through a free list.  Routes are
CSR-packed into one flat channel-id store — a Python list for scalar
indexing in the grant loop plus a write-through numpy buffer for the
vectorized drain's gathers — shared by every worm on the same (source,
destination) pair.  Per-channel state is flat lists indexed by dense
channel id: the owner slot, and the FIFO queue as an intrusive linked
list (``queue_head`` / ``queue_tail`` per channel, one ``next`` pointer
per worm — a worm waits in at most one queue, so one link suffices).

**The movement invariant.**  Before reaching its destination a worm's
``moves`` increments exactly once per channel acquisition, and the
acquisition is recorded *before* the increment — so route channel ``i``
is always acquired at movement count ``i``.  Channel ``i`` is therefore
released exactly when ``moves`` reaches ``i + flits``, which turns the
reference's per-worm release scan into arithmetic: each movement (grant
or drain) releases at most route index ``moves - flits``, and by the
time a worm finishes every channel is already free.  This is the same
invariant that let the reference collapse ``acquire_moves`` to a scalar.

**Phase 1 (drain).**  Once a worm's head arrives, its remaining life is
fully determined: it releases route index ``moves - flits`` on each
subsequent cycle (once non-negative) and finishes on the cycle that
index reaches the ejection channel.  The drain therefore carries only a
release-index counter per worm — four parallel arrays (slot, release
index, route base, final index) advanced either by a scalar loop (small
sets, where interpreter-level arithmetic beats numpy's per-call
constants) or by vectorized increment/gather/compress passes (large
sets), leaving scalar work only for actual channel releases and
deliveries.

**Phase 2 (grants).**  No scan at all: the fabric maintains the exact
set of channels that could possibly be granted (free, with a waiter),
so the scalar loop touches only channels that change hands this cycle.
The reference's sequential scan order is reproduced exactly by ordering
grants on each channel's *pending stamp* — the stamp assigned when its
queue last went empty-to-nonempty, which is precisely the position the
reference's pending list would visit it at:

* the reference appends a channel to its pending list once, on the
  empty-to-nonempty enqueue, and drops it only when the queue empties —
  so pending order is always ascending stamp order;
* a channel released *during* Phase 2 by a grant at stamp ``s`` is
  grantable this cycle iff its own stamp exceeds ``s`` (the scan hasn't
  passed it yet) — later stamps join this cycle's heap, earlier ones
  carry to the next cycle;
* a channel enqueued during Phase 2 (a granted worm queuing for its next
  hop) gets a fresh stamp past every live one and its head worm has
  already moved this cycle, so it can only carry to the next cycle —
  exactly what the reference's ``moved_at`` check produces.

The seeded parity suite pins this equivalence cycle for cycle against
the reference on multiple torus shapes and mapping modes, and the
property tests drive both fabrics with random traffic.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.sim.message import Message
from repro.sim.telemetry import FabricTelemetry, TelemetryConfig
from repro.topology.torus import Torus

__all__ = ["DeliveredWorm", "FabricKernel"]

ChannelKey = Tuple

#: Initial worm-pool capacity; the pool doubles when it runs out.
_INITIAL_CAPACITY = 64

#: Draining-set size at which the vectorized Phase-1 path overtakes the
#: scalar loop (numpy's per-call constants cost roughly this many
#: per-worm scalar iterations).
_DRAIN_VECTOR_THRESHOLD = 80


class DeliveredWorm:
    """Delivery record handed to ``on_delivery`` (message + accounting)."""

    __slots__ = ("message", "hops", "source_wait")

    def __init__(self, message: Message, hops: int, source_wait: int):
        self.message = message
        self.hops = hops
        self.source_wait = source_wait

    def __repr__(self) -> str:
        return (
            f"DeliveredWorm({self.message!r}, hops={self.hops}, "
            f"source_wait={self.source_wait})"
        )


class FabricKernel:
    """Array-backed rigid-worm wormhole fabric.

    Drop-in replacement for the reference fabric's interface: same
    constructor shape, same ``inject`` / ``tick`` / ``quiescent`` /
    ``link_flits`` surface, same delivery-record attributes
    (``message``, ``hops``, ``source_wait``), same stall detection.
    """

    def __init__(
        self,
        torus: Torus,
        on_delivery: Callable[[DeliveredWorm], None],
        stall_limit: int = 10000,
    ):
        self.torus = torus
        self.on_delivery = on_delivery
        self.stall_limit = stall_limit

        # Channel enumeration: identical id assignment to the reference
        # fabric (injection, ejection, then two VCs per directed link).
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
        self._link_flit_counts = [0] * len(self._link_keys)

        # Per-channel state (flat lists indexed by channel id).
        self._owner: List[int] = [-1] * count          # worm slot or -1
        self._queue_head: List[int] = [-1] * count     # worm slot or -1
        self._queue_tail: List[int] = [-1] * count
        #: Pending-order stamp, assigned on empty-to-nonempty enqueue;
        #: meaningful only while the queue is non-empty.
        self._stamp: List[int] = [0] * count
        self._stamp_counter = 0
        #: Channels that may be grantable (free with a waiter), plus a
        #: membership flag to keep entries unique.
        self._candidates: List[int] = []
        self._in_candidates: List[bool] = [False] * count

        # Worm pool: flat per-slot lists (plain lists grow in place, so
        # locals cached by the tick loop stay valid even when an inline
        # delivery injects new traffic and the pool has to grow).
        capacity = _INITIAL_CAPACITY
        self._w_moves: List[int] = [0] * capacity
        self._w_flits: List[int] = [0] * capacity
        self._w_route_start: List[int] = [0] * capacity
        self._w_route_len: List[int] = [0] * capacity
        self._w_head: List[int] = [-1] * capacity
        self._w_moved_at: List[int] = [-1] * capacity
        self._w_next: List[int] = [-1] * capacity      # queue link
        self._w_injected_at: List[int] = [0] * capacity
        self._w_source_wait: List[int] = [0] * capacity
        self._w_message: List[Optional[Message]] = [None] * capacity
        self._free_slots: List[int] = list(range(capacity - 1, -1, -1))

        # CSR route storage: one flat channel-id sequence, cached per
        # (source, destination).  Kept in both forms — a Python list for
        # scalar indexing in the grant loop, and a write-through numpy
        # buffer (amortized doubling) for the vectorized drain's gather.
        self._route_flat: List[int] = []
        self._route_np = np.zeros(256, dtype=np.int64)
        self._route_cache: Dict[Tuple[int, int], Tuple[int, int]] = {}

        # Drain state: per draining worm, in arrival order — the worm
        # slot, the route index it released on the previous cycle (may
        # start negative: flits still entering the network), the CSR
        # base of its route, and the final (ejection-channel) index at
        # which it finishes.  Phase-2 arrivals buffer in ``_drain_add``
        # as (slot, rel, base, last) tuples and merge at the next
        # Phase 1, preserving reference order: survivors first, then
        # this cycle's arrivals.
        self._drain_slot: List[int] = []
        self._drain_rel: List[int] = []
        self._drain_base: List[int] = []
        self._drain_last: List[int] = []
        self._drain_add: List[Tuple[int, int, int, int]] = []

        self._stall_cycles = 0
        self._owned_count = 0
        self._queued_count = 0
        self._in_flight_count = 0
        self.delivered_count = 0
        #: Optional per-channel instrumentation; ``None`` keeps the hot
        #: loop at one guarded branch per tick and per grant.
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
        """Channel ids of the e-cube route, computed arithmetically.

        The light-traffic fast path: route construction dominates kernel
        time at low load (every new (source, destination) pair walks the
        torus), so this builds the exact channel-id sequence of
        :meth:`build_route` without materializing key tuples, coordinate
        tuples, or dict lookups.  It exploits the constructor's channel
        enumeration — ``inj`` ids are ``0..N-1``, ``ej`` ids ``N..2N-1``,
        and link channel ids ``2N + 4 * (node * n + dim) + 2 * step_idx
        + vc`` with ``step_idx`` 0 for +1 travel and 1 for -1 — and
        walks node ids incrementally (``+/- stride``, or the wraparound
        jump of ``(k - 1) * stride`` at the dateline, which is also
        exactly where the VC switches to 1).  Pinned channel-for-channel
        against :meth:`build_route` by the parity suite.
        """
        if source == destination:
            raise SimulationError(
                f"messages to self must not enter the network (node {source})"
            )
        radix = self.torus.radix
        dims = self.torus.dimensions
        link_base = 2 * self.torus.node_count
        ids = [source]
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
                vc = 0
                if forward <= backward:
                    # Positive direction (ties at half-way go positive).
                    for _ in range(forward):
                        ids.append(link_base + 4 * (node * dims + dim) + vc)
                        if coord == radix - 1:
                            node -= (radix - 1) * stride
                            coord = 0
                            vc = 1
                        else:
                            node += stride
                            coord += 1
                else:
                    for _ in range(backward):
                        ids.append(
                            link_base + 4 * (node * dims + dim) + 2 + vc
                        )
                        if coord == 0:
                            node += (radix - 1) * stride
                            coord = radix - 1
                            vc = 1
                        else:
                            node -= stride
                            coord -= 1
            stride *= radix
        ids.append(self.torus.node_count + destination)
        return ids

    def _append_route_ids(self, ids: List[int]) -> Tuple[int, int]:
        """Append channel ids to the CSR store; return (start, length)."""
        start = len(self._route_flat)
        end = start + len(ids)
        if end > self._route_np.shape[0]:
            capacity = self._route_np.shape[0]
            while capacity < end:
                capacity *= 2
            grown = np.zeros(capacity, dtype=np.int64)
            grown[:start] = self._route_np[:start]
            self._route_np = grown
        self._route_np[start:end] = ids
        self._route_flat.extend(ids)
        return (start, len(ids))

    def _route_extent(self, source: int, destination: int) -> Tuple[int, int]:
        """CSR (start, length) of the channel-id route, memoized."""
        pair = (source, destination)
        extent = self._route_cache.get(pair)
        if extent is None:
            extent = self._append_route_ids(
                self._route_ids(source, destination)
            )
            self._route_cache[pair] = extent
        return extent

    # ------------------------------------------------------------------
    # Worm pool.
    # ------------------------------------------------------------------

    def _grow_pool(self) -> None:
        old = len(self._w_head)
        grow = old  # double
        self._w_moves.extend([0] * grow)
        self._w_flits.extend([0] * grow)
        self._w_route_start.extend([0] * grow)
        self._w_route_len.extend([0] * grow)
        self._w_head.extend([-1] * grow)
        self._w_moved_at.extend([-1] * grow)
        self._w_next.extend([-1] * grow)
        self._w_injected_at.extend([0] * grow)
        self._w_source_wait.extend([0] * grow)
        self._w_message.extend([None] * grow)
        self._free_slots.extend(range(old + grow - 1, old - 1, -1))

    def _alloc_worm(
        self, message: Message, start: int, length: int, cycle: int
    ) -> int:
        if not self._free_slots:
            self._grow_pool()
        slot = self._free_slots.pop()
        self._w_moves[slot] = 0
        self._w_flits[slot] = message.flits
        self._w_route_start[slot] = start
        self._w_route_len[slot] = length
        self._w_head[slot] = -1
        self._w_moved_at[slot] = -1
        self._w_next[slot] = -1
        self._w_injected_at[slot] = cycle
        self._w_source_wait[slot] = 0
        self._w_message[slot] = message
        self._in_flight_count += 1
        return slot

    # ------------------------------------------------------------------
    # Injection.
    # ------------------------------------------------------------------

    def inject(self, message: Message, cycle: int) -> None:
        """Queue a message at its source node's injection channel."""
        message.injected_at = cycle
        start, length = self._route_extent(
            message.source, message.destination
        )
        slot = self._alloc_worm(message, start, length, cycle)
        self._enqueue(slot, self._route_flat[start])

    def inject_on_route(
        self, message: Message, route_keys: Sequence[ChannelKey], cycle: int
    ) -> None:
        """Test hook: inject on an explicit channel-key route.

        Bypasses e-cube/dateline route construction so tests can craft
        channel-dependency patterns (e.g. a circular wait) that legal
        routing can never produce.  The route is appended to the CSR
        store uncached.
        """
        message.injected_at = cycle
        index = self._channel_index
        ids = [index[key] for key in route_keys]
        start, length = self._append_route_ids(ids)
        slot = self._alloc_worm(message, start, length, cycle)
        self._enqueue(slot, ids[0])

    def _enqueue(self, slot: int, channel: int) -> None:
        """Append ``slot`` to ``channel``'s FIFO (outside the tick loop)."""
        tail = self._queue_tail[channel]
        if tail == -1:
            self._queue_head[channel] = slot
            self._queue_tail[channel] = slot
            self._stamp_counter += 1
            self._stamp[channel] = self._stamp_counter
            if self._owner[channel] == -1 and not self._in_candidates[channel]:
                self._in_candidates[channel] = True
                self._candidates.append(channel)
        else:
            self._w_next[tail] = slot
            self._queue_tail[channel] = slot
        self._w_next[slot] = -1
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
            label="kernel",
        )
        return self._telemetry

    def _queue_depths(self) -> List[int]:
        """Waiting worms per channel FIFO (telemetry epoch sampling)."""
        depths = [0] * len(self._queue_head)
        if not self._queued_count:
            # Quiescent epoch boundary: every FIFO is empty, so skip
            # the per-channel linked-list walks — this is what keeps
            # attached telemetry nearly free on light traffic.
            return depths
        # Far fewer channels hold queued worms than exist, so find the
        # non-empty ones with one vectorized compare and walk only
        # those lists — a pure-Python sweep over every channel costs
        # more than the telemetry epoch close itself at radix >= 16.
        heads = np.asarray(self._queue_head)
        w_next = self._w_next
        for channel in np.nonzero(heads != -1)[0].tolist():
            head = self._queue_head[channel]
            depth = 0
            while head != -1:
                depth += 1
                head = w_next[head]
            depths[channel] = depth
        return depths

    def tick(self, cycle: int) -> None:
        """Advance the fabric by one network cycle."""
        # Telemetry epoch roll happens before anything else (including
        # the quiescent fast-forward), so epoch boundaries always sample
        # end-of-previous-cycle state — cycle-exact with the reference.
        telemetry = self._telemetry
        if telemetry is not None and cycle >= telemetry.epoch_end:
            telemetry.roll_to(cycle)
        # Quiescent fast-forward: with nothing owned, queued, draining,
        # or pending, a cycle is a guaranteed no-op (the full body would
        # skip both phases and reset the stall counter) — return before
        # touching any per-phase state.  This is what lets light-traffic
        # workloads pay for only the cycles that move flits.
        if not (
            self._owned_count
            or self._queued_count
            or self._drain_slot
            or self._drain_add
            or self._candidates
        ):
            self._stall_cycles = 0
            return
        progressed = False
        owner = self._owner
        queue_head = self._queue_head
        in_candidates = self._in_candidates
        candidates = self._candidates

        # ---- Phase 1: drain (hybrid scalar/vector). ------------------
        #
        # Each draining worm releases route index ``rel + 1`` this cycle
        # (once non-negative) and finishes when that index reaches the
        # ejection channel.  Both paths produce identical state and
        # identical ``on_delivery`` order (finish order is drain-list
        # order; the vector path's release/finish batching commutes
        # because releases never assign pending stamps and deliveries
        # never touch held channels).
        drain_slot = self._drain_slot
        drain_rel = self._drain_rel
        drain_base = self._drain_base
        drain_last = self._drain_last
        if self._drain_add:
            for slot, rel, base, last in self._drain_add:
                drain_slot.append(slot)
                drain_rel.append(rel)
                drain_base.append(base)
                drain_last.append(last)
            self._drain_add.clear()
        size = len(drain_slot)
        if size:
            progressed = True
            route_flat = self._route_flat
            if size < _DRAIN_VECTOR_THRESHOLD:
                freed = 0
                write = 0
                for read in range(size):
                    rel = drain_rel[read] + 1
                    slot = drain_slot[read]
                    if rel >= 0:
                        base = drain_base[read]
                        channel = route_flat[base + rel]
                        owner[channel] = -1
                        freed += 1
                        if (
                            queue_head[channel] != -1
                            and not in_candidates[channel]
                        ):
                            in_candidates[channel] = True
                            candidates.append(channel)
                        if rel == drain_last[read]:
                            # Tail crossed the ejection channel.
                            self._finish(slot, cycle)
                            continue
                        drain_base[write] = base
                    else:
                        drain_base[write] = drain_base[read]
                    drain_slot[write] = slot
                    drain_rel[write] = rel
                    drain_last[write] = drain_last[read]
                    write += 1
                if write != size:
                    del drain_slot[write:]
                    del drain_rel[write:]
                    del drain_base[write:]
                    del drain_last[write:]
                self._owned_count -= freed
            else:
                rel = np.asarray(drain_rel, dtype=np.int64)
                rel += 1
                last = np.asarray(drain_last, dtype=np.int64)
                releasing = rel >= 0
                if releasing.any():
                    base = np.asarray(drain_base, dtype=np.int64)
                    released = self._route_np[
                        base[releasing] + rel[releasing]
                    ]
                    freed = 0
                    for channel in released.tolist():
                        owner[channel] = -1
                        freed += 1
                        if (
                            queue_head[channel] != -1
                            and not in_candidates[channel]
                        ):
                            in_candidates[channel] = True
                            candidates.append(channel)
                    self._owned_count -= freed
                done = rel == last
                if done.any():
                    keep = ~done
                    finished = [
                        drain_slot[i] for i in np.nonzero(done)[0].tolist()
                    ]
                    kept = np.nonzero(keep)[0].tolist()
                    self._drain_slot = [drain_slot[i] for i in kept]
                    self._drain_rel = rel[keep].tolist()
                    self._drain_base = [drain_base[i] for i in kept]
                    self._drain_last = last[keep].tolist()
                    for slot in finished:
                        self._finish(slot, cycle)
                else:
                    self._drain_rel = rel.tolist()

        # ---- Phase 2: grants over the candidate set. -----------------
        if candidates:
            stamp = self._stamp
            heap = [(stamp[channel], channel) for channel in candidates]
            heapify(heap)
            carry: List[int] = []
            self._candidates = carry
            candidates = carry
            queue_tail = self._queue_tail
            w_next = self._w_next
            w_head = self._w_head
            w_moved_at = self._w_moved_at
            w_moves = self._w_moves
            w_flits = self._w_flits
            w_route_start = self._w_route_start
            w_route_len = self._w_route_len
            route_flat = self._route_flat
            link_of = self._link_of
            link_flit_counts = self._link_flit_counts
            telemetry_flits = (
                None if telemetry is None else telemetry.channel_flits
            )
            drain_add = self._drain_add
            # Count deltas accumulate in locals (attribute stores on
            # every grant are measurable); written back after the loop,
            # before the stall check reads them.
            owned_delta = 0
            queued_delta = 0
            while heap:
                position, channel = heappop(heap)
                slot = queue_head[channel]
                if slot == -1 or owner[channel] != -1:
                    # Stale entry (queue drained or channel re-owned
                    # since it was added); it re-enters via the usual
                    # enqueue/release paths if it becomes grantable.
                    in_candidates[channel] = False
                    continue
                if w_moved_at[slot] == cycle:
                    # Head worm already moved this cycle — the reference
                    # scan would skip it and keep the channel pending.
                    carry.append(channel)
                    continue

                # Grant: pop the FIFO head and advance the worm.
                progressed = True
                follower = w_next[slot]
                queue_head[channel] = follower
                if follower == -1:
                    queue_tail[channel] = -1
                # Channel now owned; it re-enters the candidate set when
                # released (its stamp — hence its place in the reference
                # scan order — is unchanged while its queue stays
                # non-empty).
                in_candidates[channel] = False
                queued_delta -= 1
                owner[channel] = slot
                owned_delta += 1
                head = w_head[slot] + 1
                w_head[slot] = head
                if head == 0:
                    self._w_source_wait[slot] = (
                        cycle - self._w_injected_at[slot]
                    )
                moves = w_moves[slot] + 1
                w_moves[slot] = moves
                w_moved_at[slot] = cycle
                flits = w_flits[slot]
                link = link_of[channel]
                if link >= 0:
                    link_flit_counts[link] += flits
                if telemetry_flits is not None:
                    # Busy flit-cycles, booked at acquisition (the same
                    # convention as the per-link flit counters above,
                    # but for every channel including inj/ej).
                    telemetry_flits[channel] += flits
                route_start = w_route_start[slot]
                # This movement completes route channel moves - flits,
                # if any (the movement invariant).
                release_index = moves - flits
                if release_index >= 0:
                    released = route_flat[route_start + release_index]
                    owner[released] = -1
                    owned_delta -= 1
                    if (
                        queue_head[released] != -1
                        and not in_candidates[released]
                    ):
                        in_candidates[released] = True
                        if stamp[released] > position:
                            # The reference scan hasn't reached this
                            # channel yet this cycle: grantable now.
                            heappush(heap, (stamp[released], released))
                        else:
                            # Already passed in scan order: next cycle.
                            carry.append(released)
                route_len = w_route_len[slot]
                if head == route_len - 1:
                    if moves >= head + flits:
                        # Single-flit arrival: deliver inline.  The
                        # delivery callback may inject; those enqueues
                        # land in ``carry`` (the live candidate list)
                        # with fresh stamps — move them into this
                        # cycle's heap, since the reference scan visits
                        # entries appended mid-scan in the same cycle.
                        carried = len(carry)
                        self._finish(slot, cycle)
                        for fresh in carry[carried:]:
                            heappush(heap, (stamp[fresh], fresh))
                        del carry[carried:]
                    else:
                        drain_add.append(
                            (slot, release_index, route_start, head)
                        )
                else:
                    next_channel = route_flat[route_start + head + 1]
                    # Inline enqueue: a fresh empty-to-nonempty queue
                    # gets a new stamp; its head (this worm) has moved
                    # this cycle, so it can only carry to the next one.
                    tail = queue_tail[next_channel]
                    if tail == -1:
                        queue_head[next_channel] = slot
                        queue_tail[next_channel] = slot
                        self._stamp_counter += 1
                        stamp[next_channel] = self._stamp_counter
                        if (
                            owner[next_channel] == -1
                            and not in_candidates[next_channel]
                        ):
                            in_candidates[next_channel] = True
                            carry.append(next_channel)
                    else:
                        w_next[tail] = slot
                        queue_tail[next_channel] = slot
                    w_next[slot] = -1
                    queued_delta += 1
            self._owned_count += owned_delta
            self._queued_count += queued_delta

        # ---- Deadlock safety net. ------------------------------------
        in_flight = bool(
            self._owned_count
            or self._queued_count
            or self._drain_slot
            or self._drain_add
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

    def _finish(self, slot: int, cycle: int) -> None:
        """Deliver the message and recycle the worm slot.

        By the movement invariant every route channel has already been
        released by the time the tail arrives, so delivery is pure
        bookkeeping (the reference's finish-time release loop is
        provably a no-op).
        """
        message = self._w_message[slot]
        message.delivered_at = cycle
        self.delivered_count += 1
        if self._telemetry is not None:
            self._telemetry.record_delivery(
                cycle - self._w_injected_at[slot]
            )
        record = DeliveredWorm(
            message=message,
            hops=self._w_route_len[slot] - 2,
            source_wait=self._w_source_wait[slot],
        )
        self._w_message[slot] = None
        self._free_slots.append(slot)
        self._in_flight_count -= 1
        self.on_delivery(record)

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
        return self._in_flight_count

    def quiescent(self) -> bool:
        """True when no traffic is anywhere in the fabric."""
        return not (
            self._owned_count
            or self._queued_count
            or self._drain_slot
            or self._drain_add
        )

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Quiescence horizon: the earliest cycle a tick could do work.

        Returns ``cycle`` while any worm owns, queues, drains, or waits
        (a wormhole fabric advances every cycle it holds traffic), and
        ``None`` when the fabric is empty — an idle tick is then a
        guaranteed no-op (the quiescent early-exit above resets a stall
        counter that is already zero), so the machine engine may skip
        ticking it until new traffic is injected.
        """
        if (
            self._owned_count
            or self._queued_count
            or self._drain_slot
            or self._drain_add
            or self._candidates
        ):
            return cycle
        return None
