"""Measurement analysis: curve fitting, validation, table rendering."""

from repro.analysis.fitting import (
    LineFit,
    MessageCurveFit,
    fit_line,
    fit_message_curve,
)
from repro.analysis.compare import (
    ComparisonRow,
    ModelSimComparison,
    ModelSimRow,
    SystemComparison,
    compare_model_to_replications,
    compare_systems,
)
from repro.analysis.linkmap import (
    LinkUtilization,
    link_utilization,
    render_link_heatmap,
)
from repro.analysis.plot import line_plot, sparkline
from repro.analysis.profile import (
    LocalityProfile,
    ProfileEntry,
    locality_profile,
)
from repro.analysis.report import generate_report, write_report
from repro.analysis.tables import format_number, render_series, render_table
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
    "render_series",
    "format_number",
    "LocalityProfile",
    "ProfileEntry",
    "locality_profile",
    "generate_report",
    "write_report",
    "line_plot",
    "sparkline",
    "LinkUtilization",
    "link_utilization",
    "render_link_heatmap",
    "ComparisonRow",
    "SystemComparison",
    "compare_systems",
    "compare_model_to_replications",
    "ModelSimRow",
    "ModelSimComparison",
]
