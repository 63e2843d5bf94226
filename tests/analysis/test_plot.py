"""Tests for ASCII plotting."""

import pytest

from repro.analysis.plot import line_plot
from repro.errors import ParameterError


class TestLinePlot:
    def test_basic_structure(self):
        text = line_plot(
            [1, 2, 3], {"a": [1, 2, 3]}, title="T", x_label="x", y_label="y"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert any("+" in line and "-" in line for line in lines)
        assert "* a" in lines[-1]

    def test_multiple_series_get_distinct_markers(self):
        text = line_plot([1, 2], {"a": [1, 2], "b": [2, 1]})
        assert "* a" in text and "+ b" in text

    def test_extremes_plotted_at_corners(self):
        text = line_plot([0, 10], {"a": [0, 10]}, height=5)
        rows = [l for l in text.splitlines() if "|" in l]
        assert rows[0].rstrip().endswith("*")   # max at top right
        assert rows[-1].split("|")[1][0] == "*"  # min at bottom left

    def test_log_axes_require_positive(self):
        with pytest.raises(ParameterError):
            line_plot([0, 1], {"a": [1, 2]}, x_log=True)
        with pytest.raises(ParameterError):
            line_plot([1, 2], {"a": [0, 2]}, y_log=True)

    def test_log_ticks_show_real_values(self):
        text = line_plot(
            [10, 1e6], {"a": [1, 50]}, x_log=True, y_log=True
        )
        assert "1e+06" in text
        assert "10" in text

    def test_mismatched_series_length_rejected(self):
        with pytest.raises(ParameterError):
            line_plot([1, 2, 3], {"a": [1, 2]})

    def test_tiny_plot_area_rejected(self):
        with pytest.raises(ParameterError):
            line_plot([1, 2], {"a": [1, 2]}, height=2)

    def test_no_series_rejected(self):
        with pytest.raises(ParameterError):
            line_plot([1, 2], {})
