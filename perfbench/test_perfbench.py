"""Tests for the benchmark's own arithmetic.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
from measure import Tally, best_of_parts, tail_percentile  # noqa: E402
from tracing import CoreLibProxy, Patcher, SpanRecorder, self_times  # noqa: E402


class TestSelfTimes:
    def test_nested_spans_subtract_direct_children_only(self):
        # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [15, 25).
        parent = [-1, 0, 1, 0]
        duration = [100, 30, 10, 40]
        assert self_times(parent, duration).tolist() == [30, 20, 10, 40]

    def test_roots_only(self):
        assert self_times([-1, -1], [5, 7]).tolist() == [5, 7]


class FakeClock:
    """perf_counter_ns stand-in advancing 10 ns per reading."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 10
        return self.now


class TestSpanRecorder:
    def _recorder(self, monkeypatch, flush_at=tracing.FLUSH_AT, keep_spans=tracing.KEEP_SPANS):
        monkeypatch.setattr(tracing.time, "perf_counter_ns", FakeClock())
        monkeypatch.setattr(tracing, "FLUSH_AT", flush_at)
        monkeypatch.setattr(tracing, "KEEP_SPANS", keep_spans)
        return SpanRecorder()

    def test_pass_reduction_with_nesting(self, monkeypatch):
        recorder = self._recorder(monkeypatch)
        inner = recorder.wrap("inner", lambda: None)

        def body():
            inner()
            inner()

        outer = recorder.wrap("outer", body)
        recorder.begin_pass(0)
        outer()
        record = recorder.end_pass()
        # Each call reads the clock twice; inner spans last 10 ns each and
        # the outer span 50 ns (its start, two inner spans, its end).
        assert record["layers"]["inner"]["calls"] == 2
        assert record["layers"]["inner"]["total_s"] == pytest.approx(20e-9)
        assert record["layers"]["inner"]["self_s"] == pytest.approx(20e-9)
        assert record["layers"]["outer"]["calls"] == 1
        assert record["layers"]["outer"]["total_s"] == pytest.approx(50e-9)
        assert record["layers"]["outer"]["self_s"] == pytest.approx(30e-9)
        assert record["root_s"] == pytest.approx(50e-9)

    def test_flush_between_roots_keeps_totals(self, monkeypatch):
        recorder = self._recorder(monkeypatch, flush_at=2)
        leaf = recorder.wrap("leaf", lambda: None)
        recorder.begin_pass(0)
        for _ in range(5):
            leaf()
        record = recorder.end_pass()
        assert record["layers"]["leaf"]["calls"] == 5
        assert record["layers"]["leaf"]["self_s"] == pytest.approx(50e-9)

    def test_keeps_whole_passes_and_no_setup_spans(self, monkeypatch, tmp_path):
        recorder = self._recorder(monkeypatch, flush_at=2, keep_spans=7)
        leaf = recorder.wrap("leaf", lambda: None)
        for pass_id, calls in ((-1, 4), (0, 3), (1, 5), (2, 3)):
            recorder.begin_pass(pass_id)
            for _ in range(calls):
                leaf()
            assert recorder.end_pass()["layers"]["leaf"]["calls"] == calls
        # Setup (pass -1) is never kept; pass 1 would pass the cap, so it
        # is dropped whole and the smaller pass 2 still fits.
        recorder.write(tmp_path / "spans.npz")
        spans = np.load(tmp_path / "spans.npz")
        assert spans["pass_id"].tolist() == [0, 0, 0, 2, 2, 2]
        assert (int(spans["dropped_passes"]), int(spans["dropped_spans"])) == (1, 5)

    def test_written_spans_keep_parent_links(self, monkeypatch, tmp_path):
        recorder = self._recorder(monkeypatch, flush_at=1)
        inner = recorder.wrap("inner", lambda: None)
        outer = recorder.wrap("outer", lambda: inner())
        recorder.begin_pass(3)
        outer()
        outer()
        recorder.end_pass()
        recorder.write(tmp_path / "spans.npz")
        spans = np.load(tmp_path / "spans.npz")
        assert spans["parent"].tolist() == [-1, 0, -1, 2]
        assert spans["pass_id"].tolist() == [3, 3, 3, 3]
        names = spans["names"][spans["name"]].tolist()
        assert names == ["outer", "inner", "outer", "inner"]


class TestTailPercentile:
    def test_needs_more_than_ten_samples(self):
        assert tail_percentile([1.0] * 10) is None

    def test_eleven_samples_give_the_minimum(self):
        value, percentile, count = tail_percentile(list(range(11, 0, -1)))
        assert (value, count) == (1.0, 11)
        assert percentile == pytest.approx(100 / 11)

    def test_hundred_samples_give_p90(self):
        samples = [float(i) for i in range(100)]
        value, percentile, count = tail_percentile(samples[::-1])
        assert value == 89.0
        assert sum(s > value for s in samples) == 10
        assert (percentile, count) == (90.0, 100)


class TestBestOfParts:
    def test_one_part_gives_the_fastest_pass(self):
        assert best_of_parts([[3.0], [2.0], [4.0]]) == 2.0

    def test_sums_each_parts_fastest_wall(self):
        passes = [[1.0, 5.0, 3.0], [2.0, 4.0, 3.5], [1.5, 6.0, 2.5]]
        assert best_of_parts(passes) == 1.0 + 4.0 + 2.5

    def test_passes_must_have_the_same_parts(self):
        with pytest.raises(ValueError):
            best_of_parts([[1.0, 2.0], [1.0]])


class TestTally:
    def test_failed_checks_and_exceptions_both_count(self):
        tally = Tally()
        tally.attempt(lambda: [])
        tally.attempt(lambda: ["wrong answer", "another problem"])

        def crash():
            raise RuntimeError("boom")

        tally.attempt(crash)
        assert (tally.attempted, tally.failed) == (3, 2)
        assert tally.failed_frac == pytest.approx(2 / 3)
        assert tally.problems == ["wrong answer", "another problem", "RuntimeError: boom"]

    def test_all_passing(self):
        tally = Tally()
        for _ in range(4):
            tally.attempt(lambda: [])
        assert tally.failed_frac == 0.0


class TestCoreLibProxy:
    def _fake_lib(self):
        return types.SimpleNamespace(
            bc_advance=lambda batch, rep, stop: stop + 1,
            bc_comp_count=lambda batch, rep: 3,
            bc_cycle=lambda batch, rep: 7,
            bc_destroy=lambda batch: None,
            constant=42,
        )

    def test_forwards_every_attribute_unchanged(self):
        lib = self._fake_lib()
        proxy = CoreLibProxy(lib, SpanRecorder())
        for name in ("bc_cycle", "bc_destroy", "constant"):
            assert getattr(proxy, name) is getattr(lib, name)
        with pytest.raises(AttributeError):
            proxy.missing

    def test_wrapped_calls_return_the_same_values_and_are_recorded(self):
        recorder = SpanRecorder()
        proxy = CoreLibProxy(self._fake_lib(), recorder)
        recorder.begin_pass(0)
        assert proxy.bc_advance("core", 0, 10) == 11
        assert proxy.bc_comp_count("core", 0) == 3
        assert proxy.bc_comp_count("core", 1) == 3
        record = recorder.end_pass()
        assert record["layers"]["batchcore.advance"]["calls"] == 1
        assert record["counters"] == {"batchcore.completions": 6}

    def test_real_core_functions_forward(self):
        from repro.sim import batchcore

        loaded = batchcore.load()
        if loaded is None:
            pytest.skip(f"batch core unavailable: {batchcore.load_failure()}")
        _, lib = loaded
        proxy = CoreLibProxy(lib, SpanRecorder())
        wrapped = {"bc_advance", "bc_comp_count"}
        names = [
            line.split("(")[0].split()[-1].lstrip("*")
            for line in batchcore.CDEF.splitlines()
            if "(" in line
        ]
        assert "bc_advance" in names
        for name in names:
            if name not in wrapped:
                assert getattr(proxy, name) is getattr(lib, name)


def test_patcher_rebinds_imported_names_and_restores(monkeypatch):
    def original():
        return "original"

    defining = types.ModuleType("fakepkg")
    importer = types.ModuleType("fakepkg.user")
    defining.f = original
    importer.g = original
    sys.modules["fakepkg"] = defining
    sys.modules["fakepkg.user"] = importer
    monkeypatch.setattr(tracing, "PACKAGE", "fakepkg")
    try:
        patcher = Patcher()
        patcher.function(original, lambda: "patched")
        assert defining.f() == importer.g() == "patched"
        patcher.restore()
        assert defining.f is original and importer.g is original
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.user"]
