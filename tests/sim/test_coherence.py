"""Protocol-level tests for the directory coherence controller.

A tiny harness replaces the network with an in-order queue delivered
between controller ticks (messages between a fixed pair of nodes stay
FIFO, matching the e-cube fabric's ordering guarantee the protocol
relies on).
"""

import pytest

from repro.errors import ProtocolError
from repro.sim.coherence import CacheState, CoherenceController, DirectoryState
from repro.sim.config import SimulationConfig
from repro.sim.message import Message, MessageKind
from repro.sim.stats import MachineStats


class Harness:
    """N controllers wired through an instantly-ordered message queue."""

    def __init__(self, nodes=4, contexts=1):
        self.config = SimulationConfig(
            radix=max(2, nodes), dimensions=1, contexts=contexts
        )
        self.stats = MachineStats(nodes=nodes)
        self.stats.measuring = True
        self.queue = []
        self.delivered = []
        self.controllers = [
            CoherenceController(
                node=node,
                config=self.config,
                home_of=lambda block: block[1],  # block (i, t): home = t
                send=self.queue.append,
                stats=self.stats,
            )
            for node in range(nodes)
        ]
        self.cycle = 0
        self.completions = []

    def callback(self, tag):
        def record(cycle):
            self.completions.append((tag, cycle))
        return record

    def pump(self, max_cycles=10000):
        """Tick until all controllers idle and the queue drains."""
        for _ in range(max_cycles):
            # Deliver queued messages (in order; 1-cycle transit).  The
            # queue object's identity must be preserved — controllers
            # hold a reference to its append method.
            pending = list(self.queue)
            self.queue.clear()
            for message in pending:
                message.injected_at = self.cycle
                message.delivered_at = self.cycle
                self.delivered.append(message)
                self.controllers[message.destination].deliver(message)
            self.cycle += 1
            for controller in self.controllers:
                controller.tick(self.cycle)
            if not self.queue and all(c.idle for c in self.controllers):
                return
        raise AssertionError("protocol did not quiesce")

    def read(self, node, block, tag="r"):
        self.controllers[node].request(
            block, False, self.cycle, self.callback(tag)
        )
        self.pump()

    def write(self, node, block, tag="w"):
        self.controllers[node].request(
            block, True, self.cycle, self.callback(tag)
        )
        self.pump()


BLOCK = (0, 1)  # homed at node 1


class TestReads:
    def test_remote_read_installs_shared(self):
        h = Harness()
        h.read(0, BLOCK)
        assert h.controllers[0].cache_state(BLOCK) is CacheState.SHARED
        entry = h.controllers[1].directory[BLOCK]
        assert entry.state is DirectoryState.SHARED
        assert 0 in entry.sharers

    def test_remote_read_costs_two_messages(self):
        h = Harness()
        h.read(0, BLOCK)
        assert h.stats.messages_sent == 2  # request + data reply

    def test_local_read_costs_no_messages(self):
        h = Harness()
        h.read(1, BLOCK)
        assert h.stats.messages_sent == 0
        assert h.controllers[1].cache_state(BLOCK) is CacheState.SHARED

    def test_read_of_remotely_modified_line_fetches(self):
        h = Harness()
        h.write(0, BLOCK)  # node 0 owns it modified
        h.stats.messages_sent = 0
        h.read(2, BLOCK)
        # fetch + writeback + request + reply = 4 messages
        assert h.stats.messages_sent == 4
        assert h.controllers[0].cache_state(BLOCK) is CacheState.SHARED
        assert h.controllers[2].cache_state(BLOCK) is CacheState.SHARED

    def test_read_of_home_modified_line_downgrades_home(self):
        h = Harness()
        h.write(1, BLOCK)  # home writes its own word
        assert h.controllers[1].cache_state(BLOCK) is CacheState.MODIFIED
        h.read(0, BLOCK)
        assert h.controllers[1].cache_state(BLOCK) is CacheState.SHARED
        entry = h.controllers[1].directory[BLOCK]
        assert entry.state is DirectoryState.SHARED
        assert entry.sharers == {0, 1}


class TestWrites:
    def test_local_write_with_no_sharers_is_message_free(self):
        h = Harness()
        h.write(1, BLOCK)
        assert h.stats.messages_sent == 0
        assert h.stats.local_completed == 1
        entry = h.controllers[1].directory[BLOCK]
        assert entry.state is DirectoryState.MODIFIED
        assert entry.owner == 1

    def test_owner_write_invalidates_all_sharers(self):
        # The paper's steady-state write: 2 messages per remote sharer.
        # The home sends the INVALIDATEs in ascending node id, whatever
        # order the sharers joined in.
        for nodes, home, readers in ((4, 1, (0, 2, 3)), (16, 0, (9, 3, 1))):
            h = Harness(nodes=nodes)
            block = (0, home)
            for reader in readers:
                h.read(reader, block)
            h.stats.messages_sent = 0
            h.delivered.clear()
            h.write(home, block)
            # invalidates + acks
            assert h.stats.messages_sent == 2 * len(readers)
            invalidated = [
                m.destination for m in h.delivered
                if m.kind is MessageKind.INVALIDATE
            ]
            assert invalidated == sorted(readers)
            for reader in readers:
                assert (
                    h.controllers[reader].cache_state(block)
                    is CacheState.INVALID
                )
            assert h.controllers[home].cache_state(block) is CacheState.MODIFIED

    def test_remote_write_takes_ownership(self):
        h = Harness()
        h.write(0, BLOCK)
        entry = h.controllers[1].directory[BLOCK]
        assert entry.state is DirectoryState.MODIFIED
        assert entry.owner == 0
        assert h.controllers[0].cache_state(BLOCK) is CacheState.MODIFIED

    def test_remote_write_steals_ownership_via_fetch_invalidate(self):
        h = Harness()
        h.write(0, BLOCK)
        h.write(2, BLOCK)
        assert h.controllers[0].cache_state(BLOCK) is CacheState.INVALID
        assert h.controllers[2].cache_state(BLOCK) is CacheState.MODIFIED
        assert h.controllers[1].directory[BLOCK].owner == 2

    def test_upgrade_write_invalidates_other_sharers_only(self):
        h = Harness()
        h.read(0, BLOCK)
        h.read(2, BLOCK)
        h.stats.messages_sent = 0
        h.write(0, BLOCK)  # node 0 upgrades S -> M
        # request + invalidate(2) + ack + data reply = 4 messages
        assert h.stats.messages_sent == 4
        assert h.controllers[2].cache_state(BLOCK) is CacheState.INVALID
        assert h.controllers[0].cache_state(BLOCK) is CacheState.MODIFIED


class TestSerialization:
    def test_concurrent_requests_serialize_at_home(self):
        h = Harness()
        h.write(0, BLOCK)
        # Two nodes request simultaneously; home must serialize.
        h.controllers[2].request(BLOCK, True, h.cycle, h.callback("w2"))
        h.controllers[3].request(BLOCK, False, h.cycle, h.callback("r3"))
        h.pump()
        assert len(h.completions) == 3  # initial write + both
        # Whoever went second still sees a coherent outcome.
        owner = h.controllers[1].directory[BLOCK]
        assert owner.state in (DirectoryState.MODIFIED, DirectoryState.SHARED)

    def test_concurrent_same_block_misses_coalesce(self):
        # MSHR-style: a second context missing on the same block rides
        # the first miss's fill — one network transaction, two wakeups.
        h = Harness()
        h.controllers[0].request(BLOCK, False, 0, h.callback("a"))
        h.controllers[0].request(BLOCK, False, 0, h.callback("b"))
        h.pump()
        tags = [tag for tag, _ in h.completions]
        assert tags == ["a", "b"]
        assert h.stats.messages_sent == 2  # request + reply, once
        assert h.stats.remote_completed == 1

    def test_write_waiter_upgrades_after_read_fill(self):
        # Read miss coalesces a write: the S fill cannot satisfy the
        # write, which re-issues as an upgrade and ends Modified.
        h = Harness()
        h.controllers[0].request(BLOCK, False, 0, h.callback("read"))
        h.controllers[0].request(BLOCK, True, 0, h.callback("write"))
        h.pump()
        tags = [tag for tag, _ in h.completions]
        assert tags == ["read", "write"]
        assert h.controllers[0].cache_state(BLOCK) is CacheState.MODIFIED
        assert h.controllers[1].directory[BLOCK].owner == 0

    def test_transactions_complete_with_latency_accounting(self):
        h = Harness()
        h.read(0, BLOCK)
        assert h.stats.remote_completed == 1
        assert h.stats.transaction_latency_total > 0


class TestCraftedMessages:
    """Caches never evict, so a line can only leave its owner through
    the protocol: a stray WRITEBACK or FETCH is a protocol error."""

    @staticmethod
    def deliver(h, kind, source, destination):
        h.controllers[destination].deliver(Message(
            kind=kind, source=source, destination=destination,
            block=BLOCK, transaction=0,
        ))
        h.pump()

    def test_writeback_without_pending_fetch_raises(self):
        h = Harness()
        h.write(0, BLOCK)  # node 0 owns it; the home waits for nothing
        with pytest.raises(ProtocolError, match="no fetch pending"):
            self.deliver(h, MessageKind.WRITEBACK, source=0, destination=1)

    def test_fetch_at_a_node_without_the_line_raises(self):
        h = Harness()
        with pytest.raises(ProtocolError, match="expected M"):
            self.deliver(h, MessageKind.FETCH_INVALIDATE, source=1, destination=0)


class TestStatsIntegration:
    def test_local_vs_remote_classification(self):
        h = Harness()
        h.write(1, BLOCK)   # local, no messages
        h.read(0, BLOCK)    # remote
        assert h.stats.local_completed == 1
        assert h.stats.remote_completed == 1

    def test_messages_attributed_per_node(self):
        h = Harness()
        h.read(0, BLOCK)
        assert h.stats.per_node_messages[0] == 1  # the request
        assert h.stats.per_node_messages[1] == 1  # the reply
