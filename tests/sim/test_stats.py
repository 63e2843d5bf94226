"""Tests for measurement collection and reduction."""

import pytest

from repro.errors import SimulationError
from repro.sim.message import Message, MessageKind
from repro.sim.stats import MachineStats


def make_message(kind=MessageKind.READ_REQUEST, injected=0, delivered=20):
    message = Message(kind, 0, 1, (0, 0), 0)
    message.injected_at = injected
    message.delivered_at = delivered
    return message


class TestGating:
    def test_nothing_recorded_before_measuring(self):
        stats = MachineStats(nodes=4)
        stats.message_sent(0, make_message())
        stats.transaction_started()
        stats.cache_hit()
        assert stats.messages_sent == 0
        assert stats.cache_hits_count == 0

    def test_start_measuring_snapshots_link_flits(self):
        stats = MachineStats(nodes=4)
        stats.start_measuring(100, {"link": 500})
        assert stats.link_flits_at_reset == {"link": 500}
        assert stats.measuring

    def test_window_requires_close(self):
        stats = MachineStats(nodes=4)
        stats.start_measuring(100, {})
        with pytest.raises(SimulationError):
            _ = stats.window_cycles
        stats.stop_measuring(400)
        assert stats.window_cycles == 300


class TestReduction:
    def make_measured(self):
        stats = MachineStats(nodes=2)
        stats.start_measuring(0, {"l": 0})
        for _ in range(10):
            stats.message_sent(0, make_message())
        message = make_message(injected=0, delivered=24)
        stats.message_delivered(message, hops=2, source_wait=0)
        stats.transaction_started()
        stats.transaction_completed(0, 50, remote=True)
        stats.transaction_completed(0, 10, remote=False)
        stats.stop_measuring(1000)
        return stats

    def test_summary_rates(self):
        stats = self.make_measured()
        summary = stats.summary({"l": 2000}, physical_links=4, network_speedup=2)
        assert summary.messages_sent == 10
        # 10 messages / (1000 cycles * 2 nodes)
        assert summary.message_rate == pytest.approx(0.005)
        assert summary.mean_message_interval == pytest.approx(200.0)

    def test_summary_utilization_uses_delta(self):
        stats = self.make_measured()
        summary = stats.summary({"l": 2000}, physical_links=4, network_speedup=2)
        assert summary.channel_utilization == pytest.approx(
            2000 / (1000 * 4)
        )

    def test_per_hop_latency_nets_out_serialization(self):
        stats = self.make_measured()
        summary = stats.summary({"l": 0}, physical_links=4, network_speedup=2)
        # latency 24, flits 8, wait 0, hops 2 -> (24 - 8) / 2 = 8.
        assert summary.mean_per_hop_latency == pytest.approx(8.0)

    def test_transaction_classification(self):
        stats = self.make_measured()
        summary = stats.summary({"l": 0}, physical_links=4, network_speedup=2)
        assert summary.remote_transactions == 1
        assert summary.local_transactions == 1
        assert summary.transactions == 2
        assert summary.mean_transaction_latency == pytest.approx(50.0)

    def test_issue_interval_counts_remote_only(self):
        stats = self.make_measured()
        summary = stats.summary({"l": 0}, physical_links=4, network_speedup=2)
        # window 1000 * 2 nodes / 1 remote transaction.
        assert summary.mean_issue_interval == pytest.approx(2000.0)

    def test_empty_window_fields_are_none(self):
        stats = MachineStats(nodes=2)
        stats.start_measuring(0, {})
        stats.stop_measuring(100)
        summary = stats.summary({}, physical_links=4, network_speedup=2)
        assert summary.mean_message_latency is None
        assert summary.messages_per_transaction is None
