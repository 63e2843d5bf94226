"""Least-squares fitting of measured application message curves.

Section 3.3 extracts the application model from simulation by fitting the
measured ``(t_m, T_m)`` points: the slope is the application's *measured*
latency sensitivity ``s`` and the (negated) intercept its message-curve
constant ``(T_r + T_f) / c`` in network cycles.  The same fits quantify
the paper's observation that measured slopes grow slightly less than
proportionally to the context count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.core.node import NodeModel
from repro.errors import ParameterError

__all__ = ["LineFit", "fit_line", "MessageCurveFit", "fit_message_curve"]


@dataclass(frozen=True)
class LineFit:
    """Ordinary least squares fit of ``y = slope * x + intercept``."""

    slope: float
    intercept: float
    r_squared: float


def fit_line(x: Sequence[float], y: Sequence[float]) -> LineFit:
    """Least-squares line through the given points (needs >= 2)."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ParameterError("x and y must be equal-length 1-D sequences")
    if xs.size < 2:
        raise ParameterError(f"need at least 2 points to fit, got {xs.size}")
    if np.ptp(xs) == 0:
        raise ParameterError("x values are all identical; slope undefined")
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = slope * xs + intercept
    total = float(np.sum((ys - ys.mean()) ** 2))
    residual = float(np.sum((ys - predicted) ** 2))
    r_squared = 1.0 if total == 0 else 1.0 - residual / total
    return LineFit(slope=float(slope), intercept=float(intercept), r_squared=r_squared)


@dataclass(frozen=True)
class MessageCurveFit:
    """A fitted application message curve (Eq 9, measured form)."""

    fit: LineFit
    contexts: float

    @property
    def sensitivity(self) -> float:
        """Measured latency sensitivity ``s`` (the slope)."""
        return self.fit.slope

    @property
    def curve_intercept(self) -> float:
        """Measured ``(T_r + T_f)/c`` in network cycles (``-intercept``)."""
        return -self.fit.intercept

    def to_node_model(self, messages_per_transaction: float = 1.0) -> NodeModel:
        """Build the node model this fit implies.

        A slightly negative measured intercept (statistical noise around
        a near-zero constant) is clamped to zero, since the node model
        requires a non-negative curve constant.
        """
        return NodeModel(
            sensitivity=self.sensitivity,
            intercept=max(0.0, self.curve_intercept),
            messages_per_transaction=messages_per_transaction,
        )


def fit_message_curve(
    points: Sequence[Tuple[float, float]], contexts: float = 1.0
) -> MessageCurveFit:
    """Fit measured ``(t_m, T_m)`` pairs into a message curve."""
    if len(points) < 2:
        raise ParameterError(
            f"need at least 2 (t_m, T_m) points, got {len(points)}"
        )
    x = [p[0] for p in points]
    y = [p[1] for p in points]
    return MessageCurveFit(fit=fit_line(x, y), contexts=contexts)
