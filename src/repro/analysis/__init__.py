"""Measurement analysis: curve fitting, validation, table rendering."""

from repro.analysis.fitting import (
    LineFit,
    MessageCurveFit,
    fit_line,
    fit_message_curve,
)
from repro.analysis.linkmap import (
    LinkUtilization,
    link_utilization,
    render_link_heatmap,
)
from repro.analysis.plot import line_plot
from repro.analysis.report import generate_report, write_report
from repro.analysis.tables import format_number, render_table
from repro.analysis.validation import (
    SimulatedPoint,
    ValidationReport,
    ValidationRow,
    run_validation,
    simulate_mapping_suite,
)

__all__ = [
    "LineFit",
    "MessageCurveFit",
    "fit_line",
    "fit_message_curve",
    "SimulatedPoint",
    "ValidationRow",
    "ValidationReport",
    "simulate_mapping_suite",
    "run_validation",
    "render_table",
    "format_number",
    "generate_report",
    "write_report",
    "line_plot",
    "LinkUtilization",
    "link_utilization",
    "render_link_heatmap",
]
