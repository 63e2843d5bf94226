"""Tests for the reproduction report generator."""

import re

import pytest

from repro.analysis import report
from repro.analysis.report import generate_report, write_report
from repro.experiments import runner


@pytest.fixture
def only(monkeypatch):
    """Restrict the experiment registry to the given identifiers."""

    def select(*identifiers):
        monkeypatch.setattr(
            runner, "REGISTRY", {i: runner.REGISTRY[i] for i in identifiers}
        )

    return select


class TestGenerateReport:
    def test_selected_experiments_only(self, only):
        only("table-1")
        text = generate_report(quick=True)
        assert "table-1" in text
        assert "figure-3" not in text

    def test_tables_are_fenced(self, only):
        only("table-1")
        text = generate_report(quick=True)
        assert text.count("```") >= 2

    def test_notes_become_bullets(self, only):
        only("table-1")
        text = generate_report(quick=True)
        assert "\n- " in text

    def test_analytic_subset_renders_fully(self, only):
        only("figure-6", "figure-7", "figure-8", "table-1", "ucl-vs-nucl")
        text = generate_report(quick=True)
        for identifier in ("figure-6", "figure-7", "figure-8", "table-1"):
            assert f"## {identifier}:" in text

    def test_provenance_line_names_command_and_sources(self, only):
        only("table-1")
        quick = [
            line
            for line in generate_report(quick=True).splitlines()
            if line.startswith("Provenance:")
        ]
        full = [
            line
            for line in generate_report(quick=False).splitlines()
            if line.startswith("Provenance:")
        ]
        assert len(quick) == len(full) == 1
        assert "`repro-locality report` (quick windows)" in quick[0]
        assert "`repro-locality report --full` (full windows)" in full[0]
        digest = re.search(r"digest `([0-9a-f]{12})`", quick[0]).group(1)
        assert digest == report._source_digest()

    def test_source_digest_follows_file_contents(self, tmp_path, monkeypatch):
        package = tmp_path / "repro"
        (package / "analysis").mkdir(parents=True)
        module = package / "analysis" / "report.py"
        module.write_text("a = 1\n")
        (package / "notes.txt").write_text("not a source")
        monkeypatch.setattr(report, "__file__", str(module))
        before = report._source_digest()
        (package / "notes.txt").write_text("still not a source")
        assert report._source_digest() == before
        module.write_text("a = 2\n")
        assert report._source_digest() != before


class TestWriteReport:
    def test_writes_file(self, tmp_path, only):
        only("table-1")
        path = tmp_path / "report.md"
        returned = write_report(str(path), quick=True)
        assert returned == str(path)
        content = path.read_text()
        assert content.startswith("# Reproduction report")
        assert "table-1" in content
