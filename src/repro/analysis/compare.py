"""Model-vs-measured contention.

:func:`contention_row` / :class:`ContentionComparison` check the
model's *contention term* itself.  Eq 10's channel utilization
``rho = r_m * B * k_d / 2`` is an average over all network channels; the
fabric telemetry (:mod:`repro.sim.telemetry`) measures the actual busy
fraction of every physical link, so the model's single rho can be tabled
against the measured mean *and* peak — the first empirical check of the
contention inputs rather than the latency outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.analysis.tables import render_table
from repro.core.network import TorusNetworkModel
from repro.errors import ParameterError, SaturationError
from repro.sim.telemetry import TelemetrySummary

__all__ = [
    "ContentionRow",
    "ContentionComparison",
    "contention_row",
]


@dataclass(frozen=True)
class ContentionRow:
    """One config: the model's contention inputs vs measured telemetry.

    ``model_rho`` is Eq 10 evaluated at the *measured* message rate and
    distance; ``measured_rho_mean`` / ``measured_rho_peak`` come from
    the telemetry's per-link busy counters.  Latencies compare the
    model's ``T_m`` (Eq 11) against the telemetry latency histogram's
    mean; the model side is ``None`` when the operating point sits past
    the model's saturation rate.
    """

    label: str
    message_rate: float
    distance: float
    model_rho: float
    measured_rho_mean: float
    measured_rho_peak: float
    model_latency: Optional[float]
    measured_latency: Optional[float]
    messages: int

    @property
    def rho_error(self) -> float:
        """Model minus measured mean rho (signed)."""
        return self.model_rho - self.measured_rho_mean

    @property
    def rho_relative_error(self) -> float:
        if not self.measured_rho_mean:
            return 0.0
        return self.rho_error / self.measured_rho_mean

    @property
    def hot_factor(self) -> float:
        """Peak over mean link utilization — 1.0 under perfect balance."""
        if not self.measured_rho_mean:
            return 0.0
        return self.measured_rho_peak / self.measured_rho_mean


@dataclass(frozen=True)
class ContentionComparison:
    """Model-vs-measured contention across machine configurations."""

    rows: List[ContentionRow]

    def render(self) -> str:
        table_rows = [
            (
                row.label,
                round(row.measured_rho_mean, 4),
                round(row.measured_rho_peak, 4),
                round(row.model_rho, 4),
                f"{100 * row.rho_relative_error:+.1f}%",
                (
                    round(row.measured_latency, 1)
                    if row.measured_latency is not None
                    else "-"
                ),
                (
                    round(row.model_latency, 1)
                    if row.model_latency is not None
                    else "saturated"
                ),
            )
            for row in self.rows
        ]
        return render_table(
            [
                "config",
                "rho meas",
                "rho peak",
                "rho model",
                "rho err",
                "T_m meas",
                "T_m model",
            ],
            table_rows,
            title=(
                "Model vs measured contention "
                "(per-link telemetry, Eq 10/11 at measured r_m, d)"
            ),
        )


def contention_row(
    label: str,
    network: TorusNetworkModel,
    telemetry: Union[Dict, TelemetrySummary],
    message_rate: float,
    distance: float,
) -> ContentionRow:
    """Build one model-vs-measured contention row.

    ``telemetry`` is a snapshot dict (or wrapped summary) from
    :mod:`repro.sim.telemetry`; ``message_rate`` and ``distance`` are
    the *measured* traffic parameters (messages per node per network
    cycle, mean hops) the model is evaluated at — so the comparison
    isolates the contention equations from workload-prediction error.
    """
    summary = (
        telemetry
        if isinstance(telemetry, TelemetrySummary)
        else TelemetrySummary(telemetry)
    )
    link_rho = list(summary.link_utilization().values())
    if not link_rho:
        raise ParameterError(
            f"telemetry for {label!r} carries no physical links"
        )
    model_rho = network.channel_utilization(message_rate, distance)
    try:
        model_latency: Optional[float] = network.message_latency(
            message_rate, distance
        )
    except SaturationError:
        model_latency = None
    return ContentionRow(
        label=label,
        message_rate=float(message_rate),
        distance=float(distance),
        model_rho=model_rho,
        measured_rho_mean=sum(link_rho) / len(link_rho),
        measured_rho_peak=max(link_rho),
        model_latency=model_latency,
        measured_latency=summary.latency_mean(),
        messages=summary.delivered,
    )
