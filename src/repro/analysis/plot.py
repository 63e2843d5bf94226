"""Terminal plotting: render figure-style series as ASCII charts.

The paper's artifacts are figures; these helpers let the CLI and
examples *show* them, not just tabulate them.  No plotting dependency —
plain character grids, with optional log axes (Figures 6 and 7 are
log-log plots).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.errors import ParameterError

__all__ = ["line_plot", "stacked_bars"]

_MARKERS = "*+ox#@%&"


def _transform(values: Sequence[float], log: bool, axis: str) -> List[float]:
    if not log:
        return [float(v) for v in values]
    if any(v <= 0 for v in values):
        raise ParameterError(f"log {axis}-axis requires positive values")
    return [math.log10(v) for v in values]


def _format_tick(value: float, log: bool) -> str:
    real = 10**value if log else value
    if real == 0:
        return "0"
    magnitude = abs(real)
    if magnitude >= 1e5 or magnitude < 1e-2:
        return f"{real:.0e}"
    if magnitude >= 100:
        return f"{real:,.0f}"
    return f"{real:.3g}"


def line_plot(
    x: Sequence[float],
    series: Dict[str, Sequence[float]],
    height: int = 16,
    x_log: bool = False,
    y_log: bool = False,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Scatter one or more series over a shared x axis.

    Each series gets a distinct marker (shown in the legend).  Axis
    ranges cover all series; log axes render decade-true positions.
    """
    if not x:
        raise ParameterError("line_plot needs at least one x value")
    if not series:
        raise ParameterError("line_plot needs at least one series")
    if height < 4:
        raise ParameterError("plot area must be at least 4 rows")
    for label, values in series.items():
        if len(values) != len(x):
            raise ParameterError(
                f"series {label!r} has {len(values)} points for "
                f"{len(x)} x values"
            )

    width = 64
    xs = _transform(x, x_log, "x")
    all_y = [v for values in series.values() for v in values]
    ys_flat = _transform(all_y, y_log, "y")
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys_flat), max(ys_flat)
    x_span = x_high - x_low or 1.0
    y_span = y_high - y_low or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (label, values) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        values_t = _transform(values, y_log, "y")
        for x_value, y_value in zip(xs, values_t):
            column = round((x_value - x_low) / x_span * (width - 1))
            row = round((y_value - y_low) / y_span * (height - 1))
            grid[height - 1 - row][column] = marker

    y_top = _format_tick(y_high, y_log)
    y_bottom = _format_tick(y_low, y_log)
    margin = max(len(y_top), len(y_bottom), len(y_label)) + 1

    lines: List[str] = []
    if title:
        lines.append(title)
    if y_label:
        lines.append(y_label.rjust(margin))
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = y_top.rjust(margin)
        elif row_index == height - 1:
            prefix = y_bottom.rjust(margin)
        else:
            prefix = " " * margin
        lines.append(f"{prefix}|{''.join(row)}")
    lines.append(" " * margin + "+" + "-" * width)
    x_left = _format_tick(x_low, x_log)
    x_right = _format_tick(x_high, x_log)
    axis_line = (
        " " * (margin + 1)
        + x_left
        + x_label.center(width - len(x_left) - len(x_right))
        + x_right
    )
    lines.append(axis_line)
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {label}"
        for i, label in enumerate(series)
    )
    lines.append(" " * (margin + 1) + legend)
    return "\n".join(lines)


def stacked_bars(
    bars: "Dict[str, Dict[str, float]]",
    title: str = "",
) -> str:
    """Horizontal stacked bars (Figure 8's presentation).

    ``bars`` maps a bar label to its ordered components
    (``{bar: {component: value}}``); every bar shares one scale, and each
    component renders with a distinct fill character keyed in the legend.
    """
    if not bars:
        raise ParameterError("stacked_bars needs at least one bar")
    component_names: List[str] = []
    for components in bars.values():
        for name in components:
            if name not in component_names:
                component_names.append(name)
    if not component_names:
        raise ParameterError("bars need at least one component")
    fills = {
        name: _MARKERS[index % len(_MARKERS)]
        for index, name in enumerate(component_names)
    }
    scale = max(sum(components.values()) for components in bars.values())
    if scale <= 0:
        raise ParameterError("bar totals must be positive")
    label_width = max(len(label) for label in bars)

    width = 56
    lines: List[str] = []
    if title:
        lines.append(title)
    for label, components in bars.items():
        total = sum(components.values())
        cells: List[str] = []
        for name in component_names:
            value = components.get(name, 0.0)
            count = round(value / scale * width)
            cells.append(fills[name] * count)
        bar_text = "".join(cells)
        lines.append(
            f"{label.rjust(label_width)} |{bar_text}  {total:.1f}"
        )
    legend = "   ".join(f"{fills[name]} {name}" for name in component_names)
    lines.append(" " * (label_width + 2) + legend)
    return "\n".join(lines)
