"""Measurement collection for simulation runs.

Statistics accumulate only while measurement is enabled (after warmup),
and :meth:`MachineStats.summary` reduces them to the quantities the
analytical model speaks in — ``t_m``, ``T_m``, ``d``, ``B``, ``g``,
``t_t``, ``T_t``, channel utilization — so model-vs-simulation
comparisons (Figures 3-5) are a field-by-field affair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import SimulationError
from repro.sim.message import Message

__all__ = ["MachineStats", "MeasurementSummary"]


@dataclass
class MeasurementSummary:
    """Model-facing quantities measured over one window.

    Times are network cycles; rates are per node per network cycle.
    ``None`` fields indicate the window produced no relevant events.
    """

    window_cycles: int
    nodes: int
    # Message-level
    messages_sent: int
    mean_message_interval: Optional[float]   # t_m
    message_rate: Optional[float]            # r_m
    mean_message_latency: Optional[float]    # T_m
    mean_message_flits: Optional[float]      # B
    mean_message_flits_squared: Optional[float]  # E[S^2], for M/G/1 terms
    mean_message_hops: Optional[float]       # d
    mean_per_hop_latency: Optional[float]    # (T_m - B - 2) / d, see note
    channel_utilization: Optional[float]     # rho
    # Transaction-level
    remote_transactions: int
    local_transactions: int
    mean_issue_interval: Optional[float]     # t_t (remote transactions)
    mean_transaction_latency: Optional[float]  # T_t
    messages_per_transaction: Optional[float]  # g
    cache_hits: int
    # Processor-level
    idle_fraction: Optional[float]
    context_switches: int
    #: Per-channel telemetry snapshot (see :mod:`repro.sim.telemetry`);
    #: attached by :meth:`Machine.summary` when telemetry was enabled.
    #: Structured (not a scalar), so it is excluded from :meth:`as_dict`
    #: and therefore from replication aggregation.
    telemetry: Optional[Dict] = field(default=None, repr=False, compare=False)

    @property
    def transactions(self) -> int:
        return self.remote_transactions + self.local_transactions

    def as_dict(self) -> Dict[str, Optional[float]]:
        """All measured *scalar* fields by name, plus ``transactions``.

        The replication harness aggregates over these; ``None`` fields
        (windows with no relevant events) stay ``None`` and are skipped
        by the aggregator.  The structured ``telemetry`` snapshot is
        excluded — it merges via
        :func:`repro.sim.telemetry.merge_snapshots`, not by averaging.
        """
        data = dict(vars(self))
        data.pop("telemetry", None)
        data["transactions"] = self.transactions
        return data


class MachineStats:
    """Event counters with an explicit measurement gate."""

    def __init__(self, nodes: int):
        self.nodes = nodes
        self.measuring = False
        self._window_start = 0
        self._window_end: Optional[int] = None
        self.reset(0)

    # ------------------------------------------------------------------
    # Window control.
    # ------------------------------------------------------------------

    def reset(self, cycle: int) -> None:
        """Zero all counters; measurement resumes from ``cycle``."""
        self._window_start = cycle
        self._window_end = None
        self.messages_sent = 0
        self.message_flits = 0
        self.message_flits_squared = 0
        self.messages_delivered = 0
        self.message_latency_total = 0
        self.message_hops_total = 0
        self.hop_latency_total = 0.0
        self.hop_latency_count = 0
        self.remote_started = 0
        self.remote_completed = 0
        self.local_completed = 0
        self.transaction_latency_total = 0
        self.cache_hits_count = 0
        self.link_flits_at_reset: Dict = {}
        self.idle_cycles = 0
        self.switches = 0
        self.per_node_messages: Dict[int, int] = {}

    def start_measuring(self, cycle: int, link_flits: Dict) -> None:
        """End warmup: zero counters and snapshot link-flit totals."""
        self.reset(cycle)
        self.link_flits_at_reset = dict(link_flits)
        self.measuring = True

    def stop_measuring(self, cycle: int) -> None:
        self._window_end = cycle
        self.measuring = False

    @property
    def window_cycles(self) -> int:
        if self._window_end is None:
            raise SimulationError("measurement window not closed yet")
        return self._window_end - self._window_start

    # ------------------------------------------------------------------
    # Recording hooks (called by controllers/processors/fabric).
    # ------------------------------------------------------------------

    def message_sent(self, node: int, message: Message) -> None:
        if not self.measuring:
            return
        self.messages_sent += 1
        self.message_flits += message.flits
        self.message_flits_squared += message.flits**2
        self.per_node_messages[node] = self.per_node_messages.get(node, 0) + 1

    def message_delivered(
        self, message: Message, hops: int, source_wait: int
    ) -> None:
        if not self.measuring:
            return
        latency = message.latency
        if latency is None:
            return
        self.messages_delivered += 1
        self.message_latency_total += latency
        self.message_hops_total += hops
        if hops > 0:
            # Head latency net of flit serialization (B covers the
            # injection hop, ejection hop, and drain at zero load) and of
            # queueing at the source's injection channel; the remainder
            # per hop is the measured counterpart of the model's T_h.
            head = latency - message.flits - source_wait
            self.hop_latency_total += head / hops
            self.hop_latency_count += 1

    def transaction_started(self) -> None:
        if not self.measuring:
            return
        self.remote_started += 1

    def transaction_completed(
        self, issued_at: int, cycle: int, remote: bool
    ) -> None:
        if not self.measuring:
            return
        if remote:
            self.remote_completed += 1
            self.transaction_latency_total += cycle - issued_at
        else:
            self.local_completed += 1

    def cache_hit(self) -> None:
        if not self.measuring:
            return
        self.cache_hits_count += 1

    # ------------------------------------------------------------------
    # Reduction.
    # ------------------------------------------------------------------

    def summary(
        self,
        link_flits: Dict,
        physical_links: int,
        network_speedup: int,
    ) -> MeasurementSummary:
        """Reduce the window's counters to model-facing quantities."""
        window = self.window_cycles
        if window <= 0:
            raise SimulationError("empty measurement window")

        def ratio(num, den) -> Optional[float]:
            return num / den if den else None

        flits_crossed = sum(link_flits.values()) - sum(
            self.link_flits_at_reset.values()
        )
        utilization = (
            flits_crossed / (window * physical_links) if physical_links else None
        )
        per_node_rate = ratio(self.messages_sent, window * self.nodes)
        idle_fraction = ratio(
            self.idle_cycles, (window // network_speedup) * self.nodes
        )
        # Remote transactions define the communication-transaction rate
        # (local write upgrades never touch the network).
        issue_interval = ratio(window * self.nodes, self.remote_completed)
        return MeasurementSummary(
            window_cycles=window,
            nodes=self.nodes,
            messages_sent=self.messages_sent,
            mean_message_interval=(
                1.0 / per_node_rate if per_node_rate else None
            ),
            message_rate=per_node_rate,
            mean_message_latency=ratio(
                self.message_latency_total, self.messages_delivered
            ),
            mean_message_flits=ratio(self.message_flits, self.messages_sent),
            mean_message_flits_squared=ratio(
                self.message_flits_squared, self.messages_sent
            ),
            mean_message_hops=ratio(
                self.message_hops_total, self.messages_delivered
            ),
            mean_per_hop_latency=ratio(
                self.hop_latency_total, self.hop_latency_count
            ),
            channel_utilization=utilization,
            remote_transactions=self.remote_completed,
            local_transactions=self.local_completed,
            mean_issue_interval=issue_interval,
            mean_transaction_latency=ratio(
                self.transaction_latency_total, self.remote_completed
            ),
            messages_per_transaction=ratio(
                self.messages_sent, self.remote_completed
            ),
            cache_hits=self.cache_hits_count,
            idle_fraction=idle_fraction,
            context_switches=self.switches,
        )
