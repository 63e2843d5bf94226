"""The transaction model (Section 2.2 of the paper).

A *communication transaction* is the unit of inter-processor communication
as seen by the application — in the validated architecture, a cache
coherence transaction, but the framework is agnostic to the mechanism.
The transaction model captures the network resources each transaction
consumes with three constants:

``c``
    number of messages on the transaction's *critical path* — the extent
    to which transaction latency depends on message latency.  A simple
    request/reply exchange has ``c = 2``.
``g``
    average number of messages sent per transaction (a coherence
    transaction may also fan out invalidations and acks off the critical
    path, so ``g >= c`` is typical — the paper's application measures
    ``g = 3.2``).
``fixed_overhead``
    ``T_f``: latency (processor cycles) inherent in the mechanism and
    independent of message latency — send/receive occupancy, memory
    access, directory processing.

The two defining relations are

    ``T_t = c * T_m + T_f``        (Eq 7)
    ``t_t = g * t_m``              (Eq 8)

``T_f`` is stored in processor cycles (it is processor/controller work);
:meth:`fixed_overhead_network` converts it for composition with the
network model, which works in network cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError
from repro.units import ClockDomain

__all__ = ["TransactionModel"]


@dataclass(frozen=True)
class TransactionModel:
    """Resource requirements of one communication transaction (Section 2.2).

    Parameters
    ----------
    critical_messages:
        ``c``, the number of messages on the critical path; must be > 0.
    messages_per_transaction:
        ``g``, the average number of messages injected per transaction;
        must be >= ``critical_messages`` is *not* required (some protocols
        piggyback), but it must be positive.
    fixed_overhead:
        ``T_f`` in processor cycles; must be >= 0.
    """

    critical_messages: float = 2.0
    messages_per_transaction: float = 2.0
    fixed_overhead: float = 0.0

    def __post_init__(self) -> None:
        if not self.critical_messages > 0:
            raise ParameterError(
                f"critical_messages c must be positive, got {self.critical_messages!r}"
            )
        if not self.messages_per_transaction > 0:
            raise ParameterError(
                "messages_per_transaction g must be positive, "
                f"got {self.messages_per_transaction!r}"
            )
        if self.fixed_overhead < 0:
            raise ParameterError(
                f"fixed_overhead T_f must be >= 0, got {self.fixed_overhead!r}"
            )

    # ------------------------------------------------------------------
    # Eq 7: transaction latency from message latency.
    # ------------------------------------------------------------------

    def transaction_latency(
        self, message_latency: float, clocks: ClockDomain
    ) -> float:
        """``T_t`` in *processor* cycles, given ``T_m`` in network cycles.

        Implements Eq 7 with the clock-domain conversion made explicit:
        the ``c * T_m`` term is network time, ``T_f`` is processor time.
        """
        return (
            clocks.to_processor(self.critical_messages * message_latency)
            + self.fixed_overhead
        )
