"""Plain-text rendering of result tables and series.

Benchmarks and experiment drivers print the same rows and series the
paper's tables and figures report; this module keeps the formatting in
one place so every surface (CLI, benchmarks, examples) renders results
identically.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = ["render_table", "format_number"]


def format_number(value) -> str:
    """Human-friendly numeric formatting for table cells (3 digits)."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: str = "",
) -> str:
    """Monospace table with a header rule, right-aligned numeric cells."""
    materialized: List[List[str]] = [
        [format_number(cell) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in materialized:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells for {len(headers)} headers"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(headers))
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(render_row(row) for row in materialized)
    return "\n".join(lines)
