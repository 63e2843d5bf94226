"""Tests for table rendering."""

import pytest

from repro.analysis.tables import format_number, render_table


class TestFormatNumber:
    def test_none_is_dash(self):
        assert format_number(None) == "-"

    def test_integers_unchanged(self):
        assert format_number(42) == "42"

    def test_floats_trimmed(self):
        assert format_number(3.1400001) == "3.14"

    def test_zero(self):
        assert format_number(0.0) == "0"

    def test_large_magnitudes_use_scientific(self):
        assert "e" in format_number(1.23e8) or "E" in format_number(1.23e8)

    def test_strings_pass_through(self):
        assert format_number("2x faster") == "2x faster"


class TestRenderTable:
    def test_alignment_and_rule(self):
        text = render_table(["name", "value"], [("a", 1), ("bb", 22)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert set(lines[1]) <= {"-", " "}
        # Right-aligned cells share a column edge.
        assert lines[2].endswith("1")
        assert lines[3].endswith("22")

    def test_title_prepended(self):
        text = render_table(["h"], [(1,)], title="My table")
        assert text.splitlines()[0] == "My table"

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [(1,)])
