"""High-level facade over the modeling framework.

:class:`SystemModel` bundles the three component models (application,
transaction, network) with the clock-domain relationship between
processors and switches, and exposes the questions the paper asks as
single method calls: *what is the operating point at distance d?*, *what
is the expected locality gain at machine size N?*, *where does the issue
time go?*.

The ``with_*`` methods return modified copies, mirroring the paper's
controlled experiments: change one component model while holding the
others fixed (Section 2's stated motivation for the framework's
modularity).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.core.application import ApplicationModel
from repro.core.breakdown import IssueTimeBreakdown, decompose
from repro.core.combined import OperatingPoint, solve
from repro.core.limits import limiting_per_hop_latency_for, per_hop_curve
from repro.core.metrics import GainResult, expected_gain
from repro.core.network import TorusNetworkModel
from repro.core.node import NodeModel
from repro.core.transaction import TransactionModel
from repro.units import ALEWIFE_CLOCKS, ClockDomain

__all__ = ["SystemModel"]


@dataclass(frozen=True)
class SystemModel:
    """A complete application + architecture description.

    Parameters
    ----------
    application:
        The Section 2.1 application model (``T_r``, ``p``, ``T_s``).
    transaction:
        The Section 2.2 transaction model (``c``, ``g``, ``T_f``).
    network:
        The Section 2.4 network model (``n``, ``B``, extensions).
    clocks:
        Processor/network clock relationship; defaults to the Alewife
        baseline (network 2x faster than processors).
    """

    application: ApplicationModel
    transaction: TransactionModel
    network: TorusNetworkModel
    clocks: ClockDomain = ALEWIFE_CLOCKS

    # ------------------------------------------------------------------
    # Composition.
    # ------------------------------------------------------------------

    @property
    def node(self) -> NodeModel:
        """The composed node model (Eq 9) for this system."""
        return NodeModel.from_components(
            self.application, self.transaction, self.clocks
        )

    @property
    def latency_sensitivity(self) -> float:
        """``s = p * g / c`` — the application's key tolerance parameter."""
        return self.node.sensitivity

    # ------------------------------------------------------------------
    # Solving.
    # ------------------------------------------------------------------

    def operating_point(self, distance: float) -> OperatingPoint:
        """Combined-model solution at average communication distance ``d``."""
        return solve(self.node, self.network, distance)

    def expected_gain(
        self, processors: float, ideal_distance: float = 1.0
    ) -> GainResult:
        """Ideal-vs-random mapping gain at machine size ``N`` (Figure 7)."""
        return expected_gain(
            self.node, self.network, processors, ideal_distance=ideal_distance
        )

    def breakdown(self, distance: float) -> IssueTimeBreakdown:
        """Eq 18 issue-time decomposition at distance ``d`` (Figure 8)."""
        point = self.operating_point(distance)
        return decompose(
            point, self.application, self.transaction, self.network, self.clocks
        )

    def limiting_per_hop_latency(self) -> float:
        """Eq 16's asymptotic ``T_h`` for this system."""
        return limiting_per_hop_latency_for(self.node, self.network)

    def per_hop_curve(self, sizes: Sequence[float]):
        """``T_h`` vs machine size under random mappings (Figure 6)."""
        return per_hop_curve(self.node, self.network, sizes)

    # ------------------------------------------------------------------
    # Controlled-experiment variants.
    # ------------------------------------------------------------------

    def with_grain_scaled(self, factor: float) -> "SystemModel":
        """Same system with the computation grain scaled (Figure 6)."""
        return replace(
            self, application=self.application.with_grain_scaled(factor)
        )

    def with_network_slowdown(self, factor: float) -> "SystemModel":
        """Same system with the network ``factor``x slower (Table 1)."""
        return replace(self, clocks=self.clocks.slowed(factor))

    def with_dimensions(self, dimensions: int) -> "SystemModel":
        """Same system with an ``n``-dimensional network (Section 4.2)."""
        return replace(self, network=self.network.with_dimensions(dimensions))

    # ------------------------------------------------------------------
    # Presentation.
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """A human-readable card of the system's parameters and deriveds."""
        app = self.application
        txn = self.transaction
        net = self.network
        lines = [
            "SystemModel",
            f"  application : T_r = {app.grain:g} proc cycles, "
            f"p = {app.contexts:g}, T_s = {app.switch_time:g}",
            f"  transaction : c = {txn.critical_messages:g}, "
            f"g = {txn.messages_per_transaction:g}, "
            f"T_f = {txn.fixed_overhead:g} proc cycles",
            f"  network     : {net.dimensions}-D torus, B = "
            f"{net.message_size:g} flits"
            + ("" if net.clamp_local else ", no local clamp")
            + (
                ", node-channel contention"
                if net.node_channel_contention
                else ""
            ),
            f"  clocks      : network at {self.clocks.network_speedup:g}x "
            "the processor clock",
            f"  derived     : s = {self.latency_sensitivity:.3g}, "
            f"limiting T_h = {self.limiting_per_hop_latency():.3g} "
            "network cycles",
        ]
        return "\n".join(lines)
