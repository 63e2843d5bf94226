"""The node model (Section 2.3 of the paper).

The node model is the composition of the application model (Section 2.1)
and the transaction model (Section 2.2): it describes a whole
processor/memory node *as the interconnection network sees it*, i.e. how
fast the node injects messages as a function of the average message
latency it observes.  Substituting Eqs 7 and 8 into Eq 6 gives the
*application message curve* (Eq 9):

    ``T_m = (p * g / c) * t_m - (T_r + T_f) / c``

— again a line.  Its slope is the **latency sensitivity**

    ``s = p * g / c``

(the paper's central application parameter: ``s`` is proportional to the
number of outstanding transactions ``p``), and its intercept is set by the
computation grain and the fixed transaction overhead.

Everything in this module is expressed in **network cycles** — the node
model exists to be intersected with the network model, which lives in
network time.  :meth:`NodeModel.from_components` performs the
processor-to-network conversion of ``T_r`` and ``T_f`` exactly once, at
composition time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.application import ApplicationModel
from repro.core.transaction import TransactionModel
from repro.errors import ParameterError
from repro.units import ClockDomain

__all__ = ["NodeModel"]


@dataclass(frozen=True)
class NodeModel:
    """Application message curve ``T_m = s * t_m - intercept`` (Eq 9).

    Parameters
    ----------
    sensitivity:
        Latency sensitivity ``s = p * g / c``; must be positive.  Larger
        values mean the node's injection rate reacts *less* to latency.
    intercept:
        ``(T_r + T_f) / c`` in network cycles; must be >= 0.
    messages_per_transaction:
        ``g``, kept so transaction-level quantities (``t_t``, ``r_t``)
        can be recovered from message-level ones.
    """

    sensitivity: float
    intercept: float
    messages_per_transaction: float = 1.0

    def __post_init__(self) -> None:
        if not self.sensitivity > 0:
            raise ParameterError(
                f"latency sensitivity s must be positive, got {self.sensitivity!r}"
            )
        if self.intercept < 0:
            raise ParameterError(
                f"message-curve intercept must be >= 0, got {self.intercept!r}"
            )
        if not self.messages_per_transaction > 0:
            raise ParameterError(
                "messages_per_transaction g must be positive, "
                f"got {self.messages_per_transaction!r}"
            )

    # ------------------------------------------------------------------
    # Construction from the component models.
    # ------------------------------------------------------------------

    @classmethod
    def from_components(
        cls,
        application: ApplicationModel,
        transaction: TransactionModel,
        clocks: ClockDomain,
    ) -> "NodeModel":
        """Compose application and transaction models into a node model.

        ``T_r`` and ``T_f`` arrive in processor cycles and are converted
        to network cycles here, so the resulting curve can be intersected
        directly with the network model.
        """
        sensitivity = (
            application.contexts
            * transaction.messages_per_transaction
            / transaction.critical_messages
        )
        fixed_network = clocks.to_network(
            application.grain + transaction.fixed_overhead
        )
        intercept = fixed_network / transaction.critical_messages
        return cls(
            sensitivity=sensitivity,
            intercept=intercept,
            messages_per_transaction=transaction.messages_per_transaction,
        )

    # ------------------------------------------------------------------
    # The application message curve (Eq 9) in both directions.
    # ------------------------------------------------------------------

    def message_latency(self, message_time: float) -> float:
        """``T_m`` the node can absorb at inter-message time ``t_m`` (Eq 9)."""
        return self.sensitivity * message_time - self.intercept

    def message_latency_at_rate(self, message_rate: float) -> float:
        """``T_m`` as a function of injection rate ``r_m = 1 / t_m``."""
        if not message_rate > 0:
            raise ParameterError(
                f"message rate r_m must be positive, got {message_rate!r}"
            )
        return self.sensitivity / message_rate - self.intercept

    def message_time(self, message_latency: float) -> float:
        """Invert Eq 9: ``t_m = (T_m + intercept) / s``."""
        return (message_latency + self.intercept) / self.sensitivity

    def message_rate(self, message_latency: float) -> float:
        """Injection rate ``r_m`` the node sustains at latency ``T_m``."""
        return 1.0 / self.message_time(message_latency)

    # ------------------------------------------------------------------
    # Recovering transaction-level quantities.
    # ------------------------------------------------------------------

    def issue_time(self, message_time: float) -> float:
        """``t_t = g * t_m`` in network cycles."""
        return self.messages_per_transaction * message_time

    def transaction_rate(self, message_rate: float) -> float:
        """``r_t = r_m / g`` in transactions per network cycle."""
        return message_rate / self.messages_per_transaction
