"""The network model (Section 2.4 of the paper).

This is Agarwal's closed-form model of packet-switched, wormhole-routed
k-ary n-dimensional **torus** networks with separate unidirectional
channels in both directions of each dimension and e-cube (dimension-order)
routing.  Given a per-node message injection rate ``r_m`` (messages per
network cycle), an average message size ``B`` (flits), and an average
communication distance ``d`` (hops), the model gives:

    ``k_d = d / n``                                            (Eq 13)
    ``rho = r_m * B * k_d / 2``                                (Eq 10)
    ``T_h = 1 + rho*B/(1-rho) * (k_d-1)/k_d**2 * (n+1)/n``     (Eq 14)
    ``T_m = n * k_d * T_h + B``                                (Eq 11)

All times are **network cycles**; one flit crosses one channel per network
cycle, so ``B`` doubles as the channel service time of a message.

The paper extends the base model in two ways, both implemented here:

1. **Local-traffic clamp** — Eq 14 is only valid for ``k_d >= 1``.  Highly
   local mappings (``d < n``) see essentially no network contention, so
   ``T_h = 1`` is used when ``k_d < 1``.
2. **Node-channel contention** — the pair of channels connecting a node to
   its switch is a queueing point ignored by Eq 14; at 64 nodes it adds
   two to five network cycles of latency.  We model each of the two
   channels (injection and ejection) as an M/D/1 queue with service time
   ``B`` and arrival rate ``r_m`` (in steady state a node receives as many
   messages as it sends), adding the classic Pollaczek-Khinchine waiting
   time ``rho_c * B / (2 * (1 - rho_c))`` with ``rho_c = r_m * B`` per
   channel.  The paper defers the algebra to Johnson's technical report
   [7]; this reconstruction reproduces the reported 2-5 cycle magnitude
   (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ParameterError, SaturationError

__all__ = ["TorusNetworkModel"]


@dataclass(frozen=True)
class TorusNetworkModel:
    """Agarwal's torus model (Eqs 10-14) with the paper's extensions.

    Parameters
    ----------
    dimensions:
        ``n``, the number of mesh dimensions; must be >= 1.
    message_size:
        ``B``, the average message size in flits; must be positive.
    clamp_local:
        Apply the paper's ``T_h = 1`` clamp for ``k_d < 1``.  Disabled
        only by the ablation experiments.
    node_channel_contention:
        Include Pollaczek-Khinchine waiting at the node's injection and
        ejection channels.  Disabled only by the ablation experiments.
    message_size_second_moment:
        ``E[S^2]`` of the message-size distribution, for the node-channel
        queueing term.  ``None`` (default) assumes deterministic sizes
        (``E[S^2] = B^2``, the M/D/1 case); protocols with bimodal
        control/data messages (like the validated coherence protocol: 8-
        and 24-flit messages) queue measurably more, and passing the true
        second moment captures that.  Must be >= ``B^2`` when given.
    """

    dimensions: int = 2
    message_size: float = 12.0
    clamp_local: bool = True
    node_channel_contention: bool = True
    message_size_second_moment: Optional[float] = None

    def __post_init__(self) -> None:
        if self.dimensions < 1:
            raise ParameterError(
                f"dimensions n must be >= 1, got {self.dimensions!r}"
            )
        if not self.message_size > 0:
            raise ParameterError(
                f"message_size B must be positive, got {self.message_size!r}"
            )
        if self.message_size_second_moment is not None:
            minimum = self.message_size**2
            if self.message_size_second_moment < minimum * (1.0 - 1e-9):
                raise ParameterError(
                    "message_size_second_moment E[S^2] cannot be below "
                    f"B^2 = {minimum:.4g}, got "
                    f"{self.message_size_second_moment!r}"
                )

    # ------------------------------------------------------------------
    # Basic per-dimension geometry (Eq 13).
    # ------------------------------------------------------------------

    def per_dimension_distance(self, distance: float) -> float:
        """``k_d = d / n`` (Eq 13)."""
        if not distance > 0:
            raise ParameterError(f"distance d must be positive, got {distance!r}")
        return distance / self.dimensions

    # ------------------------------------------------------------------
    # Channel utilization (Eq 10) and saturation.
    # ------------------------------------------------------------------

    def channel_utilization(self, message_rate: float, distance: float) -> float:
        """``rho = r_m * B * k_d / 2`` (Eq 10)."""
        if message_rate < 0:
            raise ParameterError(
                f"message rate r_m must be >= 0, got {message_rate!r}"
            )
        return message_rate * self.message_size * self.per_dimension_distance(distance) / 2.0

    def saturation_rate(self, distance: float) -> float:
        """Injection rate at which ``rho`` reaches 1 (network capacity)."""
        return 2.0 / (self.message_size * self.per_dimension_distance(distance))

    def node_channel_saturation_rate(self) -> float:
        """Injection rate at which the node's own channel saturates."""
        return 1.0 / self.message_size

    def max_rate(self, distance: float) -> float:
        """Smallest of the saturation rates that bound feasible operation.

        The clamp disables the Eq 14 contention term for ``k_d < 1`` but
        the channel-capacity constraint ``rho < 1`` still binds; when node
        channels are modeled, their capacity ``r_m * B < 1`` binds too.
        """
        limit = self.saturation_rate(distance)
        if self.node_channel_contention:
            limit = min(limit, self.node_channel_saturation_rate())
        return limit

    # ------------------------------------------------------------------
    # Per-hop latency (Eq 14 plus the local clamp).
    # ------------------------------------------------------------------

    def contention_geometry(self, distance: float) -> float:
        """The geometric factor ``(k_d - 1)/k_d**2 * (n + 1)/n`` of Eq 14.

        Returns 0 when the local clamp applies (``k_d < 1``), which also
        covers ``k_d <= 1`` where the base expression would go negative.
        """
        k_d = self.per_dimension_distance(distance)
        if k_d <= 1.0:
            return 0.0 if self.clamp_local else max((k_d - 1.0) / k_d**2, 0.0) * (
                (self.dimensions + 1) / self.dimensions
            )
        return ((k_d - 1.0) / k_d**2) * ((self.dimensions + 1) / self.dimensions)

    def per_hop_latency(self, message_rate: float, distance: float) -> float:
        """``T_h`` for a given injection rate and distance (Eq 14).

        Raises :class:`SaturationError` if the implied channel utilization
        is >= 1 (the open-loop model has no finite latency there).
        """
        rho = self.channel_utilization(message_rate, distance)
        geometry = self.contention_geometry(distance)
        if geometry == 0.0:
            return 1.0
        if rho >= 1.0:
            raise SaturationError(
                f"channel utilization rho = {rho:.4f} >= 1 at "
                f"r_m = {message_rate:.6g}, d = {distance:.4g}"
            )
        return 1.0 + (rho * self.message_size / (1.0 - rho)) * geometry

    # ------------------------------------------------------------------
    # Node-channel contention (the paper's second extension).
    # ------------------------------------------------------------------

    @property
    def _size_second_moment(self) -> float:
        if self.message_size_second_moment is not None:
            return self.message_size_second_moment
        return self.message_size**2

    def node_channel_delay(self, message_rate: float) -> float:
        """P-K waiting time summed over injection and ejection channels.

        ``W = r_m * E[S^2] / (2 * (1 - rho_c))`` per channel — M/D/1 when
        no second moment is configured, M/G/1 otherwise.  Zero when the
        extension is disabled.  Raises :class:`SaturationError` when a
        single node's traffic alone exceeds its channel bandwidth
        (``r_m * B >= 1``).
        """
        if not self.node_channel_contention:
            return 0.0
        rho_c = message_rate * self.message_size
        if rho_c >= 1.0:
            raise SaturationError(
                f"node channel utilization {rho_c:.4f} >= 1 at r_m = {message_rate:.6g}"
            )
        per_channel = (
            message_rate * self._size_second_moment / (2.0 * (1.0 - rho_c))
        )
        return 2.0 * per_channel

    # ------------------------------------------------------------------
    # Message latency (Eq 11 plus extensions).
    # ------------------------------------------------------------------

    def message_latency(self, message_rate: float, distance: float) -> float:
        """``T_m = n * k_d * T_h + B`` (Eq 11), plus node-channel delay.

        Note ``n * k_d`` is just ``d``: a message crosses ``d`` hops at
        ``T_h`` cycles each, then spends ``B`` cycles streaming its flits
        into the destination.
        """
        head_latency = distance * self.per_hop_latency(message_rate, distance)
        return head_latency + self.message_size + self.node_channel_delay(message_rate)

    def zero_load_latency(self, distance: float) -> float:
        """``T_m`` in an empty network: ``d + B``."""
        if not distance > 0:
            raise ParameterError(f"distance d must be positive, got {distance!r}")
        return distance + self.message_size

    # ------------------------------------------------------------------
    # Variants for experiments.
    # ------------------------------------------------------------------

    def without_extensions(self) -> "TorusNetworkModel":
        """Agarwal's base model: no local clamp, no node-channel term."""
        return replace(self, clamp_local=False, node_channel_contention=False)

    def with_dimensions(self, dimensions: int) -> "TorusNetworkModel":
        """Same network parameters in a different dimensionality."""
        return replace(self, dimensions=dimensions)

    # ------------------------------------------------------------------
    # Introspection helpers.
    # ------------------------------------------------------------------

    def describe(self, message_rate: float, distance: float) -> dict:
        """All intermediate model quantities at one operating point."""
        rho = self.channel_utilization(message_rate, distance)
        t_h = self.per_hop_latency(message_rate, distance)
        return {
            "k_d": self.per_dimension_distance(distance),
            "rho": rho,
            "T_h": t_h,
            "node_channel_delay": self.node_channel_delay(message_rate),
            "T_m": self.message_latency(message_rate, distance),
            "saturation_rate": self.max_rate(distance),
        }
