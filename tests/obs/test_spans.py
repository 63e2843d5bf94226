"""Tests for the span layer: nesting, disabled-mode no-ops, export."""

import json
import os

from repro import obs
from repro.obs.spans import NULL_SPAN, NullSpan, TraceBuffer


class TestDisabledMode:
    def test_disabled_span_is_the_shared_null_singleton(self):
        assert obs.span("anything", key="value") is NULL_SPAN

    def test_disabled_spans_record_nothing(self):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        assert len(obs.trace()) == 0

    def test_null_span_is_reentrant(self):
        span = NullSpan()
        with span:
            with span:
                pass  # same instance can nest freely

    def test_null_span_propagates_exceptions(self):
        try:
            with NULL_SPAN:
                raise ValueError("boom")
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("NULL_SPAN must not swallow exceptions")

    def test_solver_diagnostics_none_when_disabled(self):
        assert obs.solver_diagnostics() is None


class TestNesting:
    def test_depth_and_parent_links(self):
        obs.enable()
        obs.reset()
        with obs.span("outer"):
            with obs.span("middle"):
                with obs.span("inner"):
                    pass
        records = {r["name"]: r for r in obs.trace().spans}
        assert records["outer"]["depth"] == 0
        assert records["outer"]["parent"] == -1
        assert records["middle"]["depth"] == 1
        assert records["middle"]["parent"] == records["outer"]["index"]
        assert records["inner"]["depth"] == 2
        assert records["inner"]["parent"] == records["middle"]["index"]

    def test_siblings_share_a_parent(self):
        obs.enable()
        obs.reset()
        with obs.span("outer"):
            with obs.span("first"):
                pass
            with obs.span("second"):
                pass
        records = {r["name"]: r for r in obs.trace().spans}
        assert records["first"]["parent"] == records["outer"]["index"]
        assert records["second"]["parent"] == records["outer"]["index"]
        assert records["first"]["depth"] == records["second"]["depth"] == 1

    def test_spans_carry_attrs_and_durations(self):
        obs.enable()
        obs.reset()
        with obs.span("solve", distance=4.06, lanes=12):
            pass
        (record,) = obs.trace().spans
        assert record["args"] == {"distance": 4.06, "lanes": 12}
        assert record["duration"] >= 0.0

    def test_span_records_even_when_body_raises(self):
        obs.enable()
        obs.reset()
        try:
            with obs.span("failing"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert obs.trace().names() == ["failing"]


class TestMarks:
    def test_mark_and_since(self):
        obs.enable()
        obs.reset()
        with obs.span("before"):
            pass
        mark = obs.trace_mark()
        with obs.span("after"):
            pass
        tail = obs.spans_since(mark)
        assert [r["name"] for r in tail] == ["after"]

    def test_ingest_merges_foreign_records(self):
        obs.enable()
        obs.reset()
        with obs.span("local"):
            pass
        foreign = [
            {
                "index": 0, "name": "remote", "start": 0.0, "duration": 0.5,
                "depth": 0, "parent": -1, "pid": 99999, "tid": 1, "args": {},
            }
        ]
        assert obs.ingest_spans(foreign) == 1
        names = set(obs.trace().names())
        assert names == {"local", "remote"}
        pids = {r["pid"] for r in obs.trace().spans}
        assert 99999 in pids

    def test_reset_drops_spans_but_keeps_enabled(self):
        obs.enable()
        obs.reset()
        with obs.span("gone"):
            pass
        obs.reset()
        assert len(obs.trace()) == 0
        assert obs.is_enabled()


class TestExport:
    def test_chrome_trace_is_loadable_json(self, tmp_path):
        obs.enable()
        obs.reset()
        with obs.span("outer", kind="test"):
            with obs.span("inner"):
                pass
        path = obs.write_chrome_trace(str(tmp_path / "trace.json"))
        with open(path) as handle:
            document = json.load(handle)
        events = document["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert isinstance(event["pid"], int)
        outer = next(e for e in events if e["name"] == "outer")
        assert outer["args"]["kind"] == "test"
        assert outer["cat"] == "outer"

    def test_chrome_events_sorted_by_start(self):
        buffer = TraceBuffer()
        with buffer.span("a", {}):
            with buffer.span("b", {}):
                pass
        # Completion order is b, a; export restores start order a, b.
        assert buffer.names() == ["b", "a"]
        events = buffer.chrome_trace_events()
        assert [e["name"] for e in events] == ["a", "b"]

    def test_jsonl_one_record_per_line(self, tmp_path):
        obs.enable()
        obs.reset()
        for name in ("one", "two", "three"):
            with obs.span(name):
                pass
        path = obs.write_spans_jsonl(str(tmp_path / "trace.jsonl"))
        lines = open(path).read().splitlines()
        assert len(lines) == 3
        parsed = [json.loads(line) for line in lines]
        assert [r["name"] for r in parsed] == ["one", "two", "three"]
        assert all("duration" in r and "pid" in r for r in parsed)


class TestCounters:
    def test_counter_no_op_when_disabled(self):
        obs.trace_counter("fabric.telemetry", 10.0, {"rho": 0.5})
        assert obs.trace().counters == []

    def test_counter_events_export_as_ph_c(self, tmp_path):
        obs.enable()
        obs.reset()
        obs.trace_counter("fabric.telemetry", 64.0, {"rho": 0.25, "depth": 3})
        obs.trace_counter("fabric.telemetry", 128.0, {"rho": 0.5, "depth": 7})
        with obs.span("work"):
            pass
        path = obs.write_chrome_trace(str(tmp_path / "trace.json"))
        with open(path) as handle:
            events = json.load(handle)["traceEvents"]
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == 2
        assert [c["ts"] for c in counters] == [64.0, 128.0]
        assert counters[0]["name"] == "fabric.telemetry"
        assert counters[0]["cat"] == "fabric"
        assert counters[0]["args"] == {"rho": 0.25, "depth": 3}
        # Span events still ride alongside the counter series.
        assert any(e["ph"] == "X" and e["name"] == "work" for e in events)

    def test_reset_drops_counters(self):
        obs.enable()
        obs.reset()
        obs.trace_counter("c", 1.0, {"v": 1})
        obs.reset()
        assert obs.trace().counters == []


class TestWorkerPayloads:
    @staticmethod
    def _span_record(pid, name="worker.task"):
        return {
            "index": 0, "name": name, "start": 0.0, "duration": 0.1,
            "depth": 0, "parent": -1, "pid": pid, "tid": 1, "args": {},
        }

    def test_merges_foreign_spans_and_histograms(self):
        obs.enable()
        obs.reset()
        obs.REGISTRY.histogram("sim.latency", buckets=(4, 8)).observe(2)
        payload = {
            "pid": 424242,
            "spans": [self._span_record(424242)],
            "histograms": {
                "sim.latency": {
                    "type": "histogram",
                    "buckets": [4, 8],
                    "counts": [0, 2, 1],
                    "count": 3,
                    "sum": 30.0,
                }
            },
        }
        merged = obs.ingest_worker_payloads([payload, None])
        assert merged == 1
        assert "worker.task" in obs.trace().names()
        histogram = obs.REGISTRY.get("sim.latency")
        assert histogram.counts == [1, 2, 1]
        assert histogram.count == 4

    def test_own_pid_payloads_are_skipped(self):
        # A fork that shipped inherited state back must not double-count.
        obs.enable()
        obs.reset()
        payload = {
            "pid": os.getpid(),
            "spans": [self._span_record(os.getpid())],
            "histograms": {
                "sim.latency.own_pid": {
                    "type": "histogram",
                    "buckets": [4, 8],
                    "counts": [1, 0, 0],
                    "count": 1,
                    "sum": 1.0,
                }
            },
        }
        assert obs.ingest_worker_payloads([payload]) == 0
        assert obs.trace().names() == []
        assert obs.REGISTRY.get("sim.latency.own_pid") is None

    def test_payloads_without_histograms_merge_spans_only(self):
        obs.enable()
        obs.reset()
        names_before = obs.REGISTRY.names()
        payload = {"pid": 424243, "spans": [self._span_record(424243)]}
        assert obs.ingest_worker_payloads([payload]) == 1
        assert obs.REGISTRY.names() == names_before
