"""Full-map invalidate directory cache coherence.

This is the simulator's stand-in for Alewife's LimitLESS protocol
(Section 3.1).  Every cache line has a *home* node (where its backing
memory lives — data is allocated with the thread that owns it, so the
thread-to-processor mapping determines homes).  The home's directory
tracks a full sharer set, serializing transactions per block.

For the paper's synthetic application the protocol produces exactly the
transaction structure the paper reports: a remote read of a
neighbor's state word costs a request + data reply (2 messages), and the
owner's subsequent write costs an invalidate + ack per remote sharer
(2 x 4 messages for 4 torus neighbors), giving 16 messages per 5
transactions — the paper's ``g = 3.2``.

The controller models Alewife's single CMMU: one engine per node
processes protocol events (requests, receives, sends, memory accesses)
serially, each with a fixed occupancy (the ``*_CYCLES`` constants of
:mod:`repro.sim.config`).  This serialization is what
makes fixed transaction overhead grow with the number of contexts
issuing, the effect the analytic calibration captures as ``T_f ~ p``.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import ProtocolError
from repro.sim.config import (
    MEMORY_CYCLES,
    RECEIVE_CYCLES,
    REQUEST_CYCLES,
    SEND_CYCLES,
    SimulationConfig,
)
from repro.sim.message import Message, MessageKind

__all__ = [
    "CacheState",
    "DirectoryState",
    "Block",
    "CoherenceController",
]

Block = Tuple[int, int]  # (application instance, owning thread)
CompletionCallback = Callable[[int], None]  # called with completion cycle


class CacheState(enum.Enum):
    """Per-line cache state (MSI)."""

    INVALID = "I"
    SHARED = "S"
    MODIFIED = "M"


class DirectoryState(enum.Enum):
    """Home-directory state for one block."""

    UNOWNED = "unowned"
    SHARED = "shared"
    MODIFIED = "modified"


@dataclass
class _DirectoryEntry:
    state: DirectoryState = DirectoryState.UNOWNED
    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None
    #: A transaction is in progress; further requests for this block wait.
    busy: bool = False
    #: Deferred work to re-run when the block unbusies.
    deferred: Deque[Callable[[int], None]] = field(default_factory=deque)


@dataclass
class _HomeTransaction:
    """Home-side state for a multi-message transaction."""

    block: Block
    requester: int
    is_write: bool
    transaction_uid: int
    pending_acks: int = 0
    awaiting_writeback: bool = False


@dataclass
class _LocalRequest:
    """Requester-side record of an outstanding miss.

    ``waiters`` holds accesses from *other contexts of the same node*
    that coalesced onto this miss (MSHR-style): each waits for the same
    line fill and completes with it — unless it is a write and the fill
    only granted Shared, in which case it re-issues as an upgrade.
    """

    block: Block
    is_write: bool
    issued_at: int
    callback: CompletionCallback
    uid: int
    messages: int = 0
    waiters: List[Tuple[bool, int, CompletionCallback]] = field(
        default_factory=list
    )


class CoherenceController:
    """One node's cache + directory + protocol engine.

    Parameters
    ----------
    node:
        This controller's node id.
    config:
        The machine's clock ratio, which converts the controller's
        occupancies from processor to network cycles.
    home_of:
        Maps a block to its home node.
    send:
        Injects a :class:`Message` into the fabric (called at the cycle
        the send completes its controller occupancy).
    stats:
        Recording hooks; must provide ``transaction_started``,
        ``transaction_completed``, ``local_transaction`` and
        ``message_sent`` methods (see :mod:`repro.sim.stats`).
    """

    def __init__(
        self,
        node: int,
        config: SimulationConfig,
        home_of: Callable[[Block], int],
        send: Callable[[Message], None],
        stats,
        wake: Optional[Callable[["CoherenceController"], None]] = None,
    ):
        self.node = node
        self.home_of = home_of
        self._send_to_fabric = send
        self.stats = stats
        #: Called (with this controller) when work arrives while the
        #: engine is idle, so a driver that skips idle engines knows to
        #: tick this one.  ``None`` means the driver ticks every cycle.
        self._wake = wake
        self._notified = False
        self._ticking = False

        self.cache: Dict[Block, CacheState] = {}
        self.directory: Dict[Block, _DirectoryEntry] = {}

        # Serial protocol engine.
        self._engine_queue: Deque[Tuple[int, Callable[[int], None]]] = deque()
        self._engine_done_at: Optional[int] = None
        self._engine_thunk: Optional[Callable[[int], None]] = None

        # Outstanding requester-side transactions, keyed by block.
        self._outstanding: Dict[Block, _LocalRequest] = {}
        # Home-side transactions in progress, keyed by block.
        self._home_transactions: Dict[Block, _HomeTransaction] = {}

        self._next_uid = node  # node-unique spacing avoids global counter
        self._uid_stride = 1 << 20

        # Engine occupancies in network cycles, precomputed (the clock
        # conversion is pure and these are read on every protocol event).
        self._request_cost = config.to_network(REQUEST_CYCLES)
        self._receive_cost = config.to_network(RECEIVE_CYCLES)
        self._send_cost = config.to_network(SEND_CYCLES)
        self._memory_cost = config.to_network(MEMORY_CYCLES)

    # ------------------------------------------------------------------
    # Engine: serialized event processing with occupancy.
    # ------------------------------------------------------------------

    def _schedule(self, cost_network: int, thunk: Callable[[int], None]) -> None:
        self._engine_queue.append((cost_network, thunk))
        # Wake the driver only on an idle-to-busy transition: a waiting
        # engine is already on the driver's wake calendar, and work
        # scheduled mid-tick is drained by the tick loop itself.
        if (
            self._wake is not None
            and self._engine_thunk is None
            and not self._ticking
            and not self._notified
        ):
            self._notified = True
            self._wake(self)

    def tick(self, cycle: int) -> None:
        """Run the protocol engine for one network cycle."""
        self._ticking = True
        while True:
            if self._engine_thunk is not None:
                if self._engine_done_at > cycle:
                    break
                thunk = self._engine_thunk
                self._engine_thunk = None
                thunk(self._engine_done_at)
                continue
            if not self._engine_queue:
                break
            cost, thunk = self._engine_queue.popleft()
            if cost == 0:
                thunk(cycle)
                continue
            self._engine_done_at = cycle + cost
            self._engine_thunk = thunk
        self._ticking = False

    @property
    def idle(self) -> bool:
        """No queued or in-progress protocol work."""
        return self._engine_thunk is None and not self._engine_queue

    # ------------------------------------------------------------------
    # Processor-facing API.
    # ------------------------------------------------------------------

    def cache_state(self, block: Block) -> CacheState:
        """Current cache state; absent lines are INVALID.

        The ``cache`` dict holds only S/M lines; invalidation removes
        entries.  Caches are unbounded, so nothing else does.
        """
        return self.cache.get(block, CacheState.INVALID)

    def is_hit(self, block: Block, is_write: bool) -> bool:
        """Whether an access completes without a coherence transaction."""
        state = self.cache_state(block)
        if is_write:
            return state is CacheState.MODIFIED
        return state in (CacheState.SHARED, CacheState.MODIFIED)

    def request(
        self,
        block: Block,
        is_write: bool,
        cycle: int,
        callback: CompletionCallback,
    ) -> None:
        """Start a coherence transaction for a cache miss.

        ``callback`` fires (with the completion cycle) once the access
        is globally performed and the line is in the requester's cache.
        """
        existing = self._outstanding.get(block)
        if existing is not None:
            # Another context of this node already misses on the block:
            # coalesce onto its fill.  One network transaction serves
            # both, so the waiter stays invisible to transaction
            # statistics (its stall shows up as processor idle time).
            existing.waiters.append((is_write, cycle, callback))
            return
        uid = self._next_uid
        self._next_uid += self._uid_stride
        record = _LocalRequest(
            block=block, is_write=is_write, issued_at=cycle,
            callback=callback, uid=uid,
        )
        self._outstanding[block] = record
        self.stats.transaction_started()
        self._schedule(
            self._request_cost,
            lambda done, r=record: self._begin_transaction(r, done),
        )

    def _begin_transaction(self, record: _LocalRequest, cycle: int) -> None:
        home = self.home_of(record.block)
        if home == self.node:
            self._home_handle_request(
                record.block, self.node, record.is_write, record.uid, cycle
            )
        else:
            kind = (
                MessageKind.WRITE_REQUEST
                if record.is_write
                else MessageKind.READ_REQUEST
            )
            self._emit(kind, home, record.block, record.uid)

    # ------------------------------------------------------------------
    # Fabric-facing API.
    # ------------------------------------------------------------------

    def deliver(self, message: Message) -> None:
        """Accept a message from the fabric (handling is queued)."""
        cost = self._receive_cost
        self._schedule(cost, lambda done, m=message: self._handle(m, done))

    def _emit(
        self,
        kind: MessageKind,
        destination: int,
        block: Block,
        transaction: int,
        on_launch: Optional[Callable[[], None]] = None,
    ) -> None:
        """Queue the send-side occupancy, then inject into the fabric.

        ``on_launch`` fires right after the message enters the fabric —
        used to release a directory entry exactly when its data reply's
        ordering with later messages to the same node is pinned down.
        """
        message = Message(
            kind=kind, source=self.node, destination=destination,
            block=block, transaction=transaction,
        )

        def launch(done: int, m: Message = message) -> None:
            self._launch(m)
            if on_launch is not None:
                on_launch()

        self._schedule(self._send_cost, launch)

    def _launch(self, message: Message) -> None:
        record = self._outstanding.get(message.block)
        if record is not None and record.uid == message.transaction:
            record.messages += 1
        self.stats.message_sent(self.node, message)
        self._send_to_fabric(message)

    # ------------------------------------------------------------------
    # Message handlers.
    # ------------------------------------------------------------------

    def _handle(self, message: Message, cycle: int) -> None:
        kind = message.kind
        if kind is MessageKind.READ_REQUEST:
            self._home_handle_request(
                message.block, message.source, False, message.transaction, cycle
            )
        elif kind is MessageKind.WRITE_REQUEST:
            self._home_handle_request(
                message.block, message.source, True, message.transaction, cycle
            )
        elif kind is MessageKind.DATA_REPLY:
            self._complete_remote_miss(message, cycle)
        elif kind is MessageKind.INVALIDATE:
            self._handle_invalidate(message, cycle)
        elif kind is MessageKind.INVALIDATE_ACK:
            self._home_handle_ack(message, cycle)
        elif kind is MessageKind.FETCH:
            self._handle_fetch(message, cycle, invalidate=False)
        elif kind is MessageKind.FETCH_INVALIDATE:
            self._handle_fetch(message, cycle, invalidate=True)
        elif kind is MessageKind.WRITEBACK:
            self._home_handle_writeback(message, cycle)
        else:  # pragma: no cover - exhaustive over MessageKind
            raise ProtocolError(f"unhandled message kind {kind!r}")

    # --- home side ------------------------------------------------------

    def _entry(self, block: Block) -> _DirectoryEntry:
        entry = self.directory.get(block)
        if entry is None:
            entry = _DirectoryEntry()
            self.directory[block] = entry
        return entry

    def _home_handle_request(
        self, block: Block, requester: int, is_write: bool,
        transaction: int, cycle: int,
    ) -> None:
        if self.home_of(block) != self.node:
            raise ProtocolError(
                f"node {self.node} received a request for block {block} "
                f"homed at {self.home_of(block)}"
            )
        entry = self._entry(block)
        if entry.busy:
            entry.deferred.append(
                lambda done: self._home_handle_request(
                    block, requester, is_write, transaction, done
                )
            )
            return
        if is_write:
            self._home_write(block, entry, requester, transaction, cycle)
        else:
            self._home_read(block, entry, requester, transaction, cycle)

    def _home_read(
        self, block: Block, entry: _DirectoryEntry, requester: int,
        transaction: int, cycle: int,
    ) -> None:
        if entry.state is DirectoryState.MODIFIED and entry.owner != requester:
            if entry.owner == self.node:
                # The home itself holds the line modified (the common case
                # for the synthetic application): downgrade locally and
                # reply; memory is updated as part of the reply path.
                self.cache[block] = CacheState.SHARED
                entry.state = DirectoryState.SHARED
                entry.sharers = {self.node, requester}
                entry.owner = None
                self._reply_with_data(block, requester, transaction)
                return
            # Remote owner: fetch the line back first.
            entry.busy = True
            self._home_transactions[block] = _HomeTransaction(
                block=block, requester=requester, is_write=False,
                transaction_uid=transaction, awaiting_writeback=True,
            )
            self._emit(MessageKind.FETCH, entry.owner, block, transaction)
            return
        # UNOWNED, SHARED, or re-read by the modified owner (treated as
        # a self-downgrade).
        if entry.state is DirectoryState.MODIFIED:
            entry.sharers = {entry.owner}
            entry.owner = None
        entry.state = DirectoryState.SHARED
        entry.sharers.add(requester)
        self._reply_with_data(block, requester, transaction)

    def _home_write(
        self, block: Block, entry: _DirectoryEntry, requester: int,
        transaction: int, cycle: int,
    ) -> None:
        if entry.state is DirectoryState.MODIFIED and entry.owner != requester:
            if entry.owner == self.node:
                # Home holds it modified; invalidate own copy, hand over.
                self.cache.pop(block, None)
                entry.owner = requester
                self._reply_with_data(block, requester, transaction)
                return
            entry.busy = True
            self._home_transactions[block] = _HomeTransaction(
                block=block, requester=requester, is_write=True,
                transaction_uid=transaction, awaiting_writeback=True,
            )
            self._emit(MessageKind.FETCH_INVALIDATE, entry.owner, block, transaction)
            return
        remote_sharers = {
            s for s in entry.sharers if s not in (requester,)
        }
        local_share = self.node in remote_sharers
        if local_share:
            # Home's own cached copy invalidates without a message.
            self.cache.pop(block, None)
            remote_sharers.discard(self.node)
        if remote_sharers:
            entry.busy = True
            home_txn = _HomeTransaction(
                block=block, requester=requester, is_write=True,
                transaction_uid=transaction, pending_acks=len(remote_sharers),
            )
            self._home_transactions[block] = home_txn
            # Model rule: INVALIDATEs fan out in ascending node id.
            for sharer in sorted(remote_sharers):
                self._emit(MessageKind.INVALIDATE, sharer, block, transaction)
            return
        self._grant_write(block, entry, requester, transaction)

    def _grant_write(
        self, block: Block, entry: _DirectoryEntry, requester: int,
        transaction: int,
    ) -> None:
        entry.state = DirectoryState.MODIFIED
        entry.sharers = set()
        entry.owner = requester
        self._reply_with_data(block, requester, transaction)

    def _reply_with_data(
        self, block: Block, requester: int, transaction: int
    ) -> None:
        """Memory access, then data to the requester (or local finish).

        The directory is updated synchronously by the caller, but the
        transaction is only *ordered* once its effect lands: for a local
        requester when :meth:`_finish_local` updates the cache, for a
        remote requester when the data reply enters the fabric (from then
        on, per-pair FIFO delivery guarantees any later invalidate or
        fetch arrives after the data).  The entry stays busy until that
        point so no interleaved engine event can act on the half-done
        state — e.g. a write must not launch invalidates that would
        overtake a still-queued data reply.
        """
        entry = self._entry(block)
        entry.busy = True
        if requester == self.node:
            self._schedule(
                self._memory_cost,
                lambda done: self._finish_local(block, done),
            )
        else:
            def unbusy(b: Block = block) -> None:
                released = self._entry(b)
                released.busy = False
                self._run_deferred(released)

            self._schedule(
                self._memory_cost,
                lambda done: self._emit(
                    MessageKind.DATA_REPLY, requester, block, transaction,
                    on_launch=unbusy,
                ),
            )

    def _home_handle_ack(self, message: Message, cycle: int) -> None:
        home_txn = self._home_transactions.get(message.block)
        if home_txn is None or home_txn.pending_acks <= 0:
            raise ProtocolError(
                f"unexpected invalidate ack for block {message.block} at "
                f"node {self.node}"
            )
        home_txn.pending_acks -= 1
        if home_txn.pending_acks > 0:
            return
        entry = self._entry(message.block)
        del self._home_transactions[message.block]
        entry.busy = False
        self._grant_write(
            message.block, entry, home_txn.requester, home_txn.transaction_uid
        )
        self._run_deferred(entry)

    def _home_handle_writeback(self, message: Message, cycle: int) -> None:
        """The owner's answer to a FETCH or FETCH_INVALIDATE: complete
        the transaction that fetch serves."""
        block = message.block
        home_txn = self._home_transactions.get(block)
        if home_txn is None or not home_txn.awaiting_writeback:
            raise ProtocolError(
                f"writeback for block {block} from node {message.source} "
                f"at node {self.node} with no fetch pending"
            )
        del self._home_transactions[block]
        entry = self._entry(block)
        entry.busy = False
        if home_txn.is_write:
            entry.state = DirectoryState.MODIFIED
            entry.sharers = set()
            entry.owner = home_txn.requester
        else:
            # A FETCH leaves the old owner a Shared copy.
            entry.state = DirectoryState.SHARED
            entry.sharers = {home_txn.requester, message.source}
            entry.owner = None
        self._reply_with_data(block, home_txn.requester, home_txn.transaction_uid)
        self._run_deferred(entry)

    def _run_deferred(self, entry: _DirectoryEntry) -> None:
        """Release the next deferred request for an unbusied block.

        One waiter runs per release (it may re-busy the line); after it
        executes, the chain continues so a run of reads drains fully.
        """
        if not entry.deferred or entry.busy:
            return
        thunk = entry.deferred.popleft()

        def run_and_continue(done: int) -> None:
            thunk(done)
            self._run_deferred(entry)

        # Re-dispatch through the engine so deferred work pays a (small)
        # occupancy rather than running instantaneously.
        self._schedule(self._request_cost, run_and_continue)

    # --- remote sharer / owner side --------------------------------------

    def _handle_invalidate(self, message: Message, cycle: int) -> None:
        self.cache.pop(message.block, None)
        self._emit(
            MessageKind.INVALIDATE_ACK, message.source, message.block,
            message.transaction,
        )

    def _handle_fetch(
        self, message: Message, cycle: int, invalidate: bool
    ) -> None:
        state = self.cache_state(message.block)
        if state is not CacheState.MODIFIED:
            raise ProtocolError(
                f"fetch at node {self.node} for block {message.block} in "
                f"state {state.value} (expected M)"
            )
        if invalidate:
            del self.cache[message.block]
        else:
            self.cache[message.block] = CacheState.SHARED
        self._emit(
            MessageKind.WRITEBACK, message.source, message.block,
            message.transaction,
        )

    # --- requester completion --------------------------------------------

    def _complete_remote_miss(self, message: Message, cycle: int) -> None:
        record = self._outstanding.pop(message.block, None)
        if record is None:
            raise ProtocolError(
                f"data reply for block {message.block} with no outstanding "
                f"request at node {self.node}"
            )
        state = (
            CacheState.MODIFIED if record.is_write else CacheState.SHARED
        )
        self.cache[message.block] = state
        self.stats.transaction_completed(record.issued_at, cycle, remote=True)
        record.callback(cycle)
        self._release_waiters(record, state, cycle, remote=True)

    def _finish_local(self, block: Block, cycle: int) -> None:
        record = self._outstanding.pop(block, None)
        if record is None:
            raise ProtocolError(
                f"local completion for block {block} with no outstanding "
                f"request at node {self.node}"
            )
        state = (
            CacheState.MODIFIED if record.is_write else CacheState.SHARED
        )
        self.cache[block] = state
        entry = self._entry(block)
        entry.busy = False
        remote = record.messages > 0
        self.stats.transaction_completed(
            record.issued_at, cycle, remote=remote
        )
        record.callback(cycle)
        self._run_deferred(entry)
        self._release_waiters(record, state, cycle, remote=remote)

    def _release_waiters(
        self, record: _LocalRequest, state: CacheState, cycle: int,
        remote: bool,
    ) -> None:
        """Complete coalesced accesses once the primary miss fills.

        Reads complete with the fill; a write waiter whose fill only
        granted Shared re-issues as an upgrade transaction (and further
        write waiters coalesce onto *that*, preserving one-outstanding-
        transaction-per-block).
        """
        for is_write, issued_at, callback in record.waiters:
            if is_write and state is not CacheState.MODIFIED:
                self.request(record.block, True, cycle, callback)
                continue
            callback(cycle)
