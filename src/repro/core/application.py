"""The application model (Section 2.1 of the paper).

The application model describes the behavior of one processor running its
share of an application as a relationship between the average
inter-transaction issue time ``t_t`` and the average transaction latency
``T_t`` — the *application transaction curve*.  Three quantities
characterize it:

``T_r``
    computation grain: average useful work (in processor cycles) a thread
    performs between successive communication transactions;
``p``
    degree of hardware multithreading — more generally, the average number
    of outstanding communication transactions the processor sustains;
``T_s``
    context-switch time in processor cycles (11 cycles on Sparcle).

The paper derives (Eqs 1-6) that the curve is linear,

    ``T_t = p * t_t - T_r``        (Eq 6; Eq 2 is the ``p = 1`` case)

subject to a floor on the issue time when latencies are small enough for
the processor to fully mask them (Eq 4):

    ``t_t >= T_r + T_s``

Masking is possible exactly while (Eq 3)

    ``T_t <= p * T_s + (p - 1) * T_r``

i.e. while a transaction completes before its issuing thread's turn comes
around again.  Following the paper (which observed no experiment near the
floor and drops Eq 4 from the analysis), the floor is *reported* by this
class (:attr:`min_issue_time`) but not folded into :meth:`issue_time`.

All times in this module are **processor cycles**; conversion to the
network time base happens when an :class:`ApplicationModel` is composed
into a node model (:mod:`repro.core.node`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ParameterError

__all__ = ["ApplicationModel"]


@dataclass(frozen=True)
class ApplicationModel:
    """Three-parameter application/processor model of Section 2.1.

    Parameters
    ----------
    grain:
        Computation grain ``T_r`` in processor cycles; must be positive.
    contexts:
        Degree of multithreading ``p`` (average number of outstanding
        transactions); must be >= 1.  Non-integer values are allowed and
        model mechanisms such as prefetching that sustain a fractional
        average number of outstanding transactions.
    switch_time:
        Context-switch time ``T_s`` in processor cycles; must be >= 0.
    """

    grain: float
    contexts: float = 1.0
    switch_time: float = 0.0

    def __post_init__(self) -> None:
        if not self.grain > 0:
            raise ParameterError(f"grain T_r must be positive, got {self.grain!r}")
        if not self.contexts >= 1:
            raise ParameterError(
                f"contexts p must be >= 1, got {self.contexts!r}"
            )
        if self.switch_time < 0:
            raise ParameterError(
                f"switch_time T_s must be >= 0, got {self.switch_time!r}"
            )

    # ------------------------------------------------------------------
    # The application transaction curve (Eqs 2, 5, 6).
    # ------------------------------------------------------------------

    def issue_time(self, transaction_latency: float) -> float:
        """Average inter-transaction issue time ``t_t`` for a given ``T_t``.

        Implements Eq 5, ``t_t = (T_t + T_r) / p``, without the
        latency-masking floor (see module docstring).
        """
        return (transaction_latency + self.grain) / self.contexts

    def transaction_latency(self, issue_time: float) -> float:
        """Invert the curve: ``T_t = p * t_t - T_r`` (Eq 6)."""
        return self.contexts * issue_time - self.grain

    # ------------------------------------------------------------------
    # Latency masking (Eqs 3-4).
    # ------------------------------------------------------------------

    @property
    def min_issue_time(self) -> float:
        """Floor on the issue time when latency is fully masked (Eq 4)."""
        return self.grain + self.switch_time

    @property
    def masking_threshold(self) -> float:
        """Largest ``T_t`` the processor can fully mask (Eq 3).

        For a single-context processor this is zero: any latency at all
        leaves the processor stalled.
        """
        return self.contexts * self.switch_time + (self.contexts - 1) * self.grain

    # ------------------------------------------------------------------
    # Derived scalings used by the experiments.
    # ------------------------------------------------------------------

    def with_grain_scaled(self, factor: float) -> "ApplicationModel":
        """Same application with its computation grain scaled by ``factor``.

        Used by Figure 6's dashed curve ("artificially increasing the
        computational grain size by a factor of ten").
        """
        if not factor > 0:
            raise ParameterError(f"grain factor must be positive, got {factor!r}")
        return replace(self, grain=self.grain * factor)
