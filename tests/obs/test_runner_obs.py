"""Runner/CLI observability integration: failure accounting, alias
resolution, parallel trace merging, and --trace / diagnose artifacts."""

import json
from collections import Counter

import pytest

from repro import obs
from repro.cli import main
from repro.core.combined import solve
from repro.core.network import TorusNetworkModel
from repro.core.node import NodeModel
from repro.errors import ParameterError
from repro.experiments import runner as runner_module
from repro.experiments.result import ExperimentResult, render_perf_line
from repro.experiments.runner import (
    resolve_experiment_id,
    run_all,
    run_experiment,
)
from tests.obs.conftest import reset_perf_counters


class TestAliases:
    @pytest.mark.parametrize(
        "alias, canonical",
        [
            ("fig3", "figure-3"),
            ("Figure_3", "figure-3"),
            ("figure-3", "figure-3"),
            ("table1", "table-1"),
            ("TABLE-1", "table-1"),
        ],
    )
    def test_aliases_resolve(self, alias, canonical):
        assert resolve_experiment_id(alias) == canonical

    def test_unknown_ids_pass_through(self):
        assert resolve_experiment_id("figure-99") == "figure-99"

    def test_run_experiment_accepts_alias(self):
        result = run_experiment("fig7", quick=True)
        assert result.experiment == "figure-7"

    def test_cli_accepts_alias(self, capsys):
        assert main(["run", "fig7", "--quick"]) == 0
        assert "figure-7" in capsys.readouterr().out

    def test_cli_still_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["run", "figure-99"])


def _install_failing_experiment(monkeypatch):
    def failing_runner(quick):
        node = NodeModel(
            sensitivity=3.2, intercept=100.0, messages_per_transaction=3.2
        )
        network = TorusNetworkModel(dimensions=2, message_size=12.0)
        solve(node, network, distance=4.0)  # counted work before the crash
        raise RuntimeError("mid-experiment crash")

    registry = dict(runner_module.REGISTRY)
    registry["failing"] = failing_runner
    monkeypatch.setattr(runner_module, "REGISTRY", registry)


class TestFailureAccounting:
    def test_exception_carries_partial_perf(self, monkeypatch):
        _install_failing_experiment(monkeypatch)
        with pytest.raises(RuntimeError) as excinfo:
            run_experiment("failing")
        partial = excinfo.value.partial_perf
        assert partial["failed"] is True
        assert partial["solve_calls"] >= 1
        assert partial["wall_seconds"] >= 0.0

    def test_render_marks_partial_counts(self):
        line = render_perf_line(
            "failing",
            {"failed": True, "solve_calls": 3, "wall_seconds": 0.01},
        )
        assert "FAILED (partial counts)" in line
        assert "solve_calls 3" in line

    def test_cli_verbose_reports_partial_counts(self, monkeypatch, capsys):
        # The parser's choices and the runner both read the (patched)
        # registry at call time, so the injected experiment is reachable
        # end-to-end through the real CLI.
        _install_failing_experiment(monkeypatch)
        assert main(["run", "failing", "--quick", "--verbose"]) == 1
        captured = capsys.readouterr()
        assert "experiment failing failed" in captured.err
        assert "FAILED (partial counts)" in captured.out

    def test_cli_without_verbose_omits_partial_counts(
        self, monkeypatch, capsys
    ):
        _install_failing_experiment(monkeypatch)
        assert main(["run", "failing", "--quick"]) == 1
        captured = capsys.readouterr()
        assert "experiment failing failed" in captured.err
        assert "FAILED (partial counts)" not in captured.out


class TestRunAllSubset:
    def test_subset_preserves_caller_order(self):
        results = run_all(quick=True, experiments=["figure-7", "table-1"])
        assert [r.experiment for r in results] == ["figure-7", "table-1"]

    def test_unknown_subset_rejected(self):
        with pytest.raises(ParameterError):
            run_all(quick=True, experiments=["figure-99"])


def _span_multiset():
    return Counter(span["name"] for span in obs.trace().spans)


def _perf_snapshot():
    return {
        name: metric
        for name, metric in obs.REGISTRY.snapshot().items()
        if name.startswith("perf.")
    }


class TestParallelTraceMerge:
    def test_jobs2_trace_matches_serial(self):
        experiments = ["table-1", "figure-7"]

        obs.enable()

        obs.reset()
        reset_perf_counters()
        serial_results = run_all(quick=True, experiments=experiments)
        serial_spans = _span_multiset()
        serial_perf = _perf_snapshot()

        obs.reset()
        reset_perf_counters()
        parallel_results = run_all(
            quick=True, jobs=2, experiments=experiments
        )
        parallel_spans = _span_multiset()
        parallel_perf = _perf_snapshot()

        # One merged trace whose per-experiment span set equals the
        # serial run's, and identical merged solver counters.
        assert parallel_spans == serial_spans
        assert parallel_spans["experiment"] == len(experiments)
        assert parallel_perf == serial_perf
        assert [r.render() for r in parallel_results] == [
            r.render() for r in serial_results
        ]

    def test_jobs2_writes_one_merged_artifact_set(self, tmp_path):
        obs.enable()
        obs.reset()
        reset_perf_counters()
        run_all(quick=True, jobs=2, experiments=["table-1", "figure-7"])
        paths = obs.write_outputs(
            str(tmp_path), experiments=["table-1", "figure-7"]
        )
        with open(paths["trace"]) as handle:
            events = json.load(handle)["traceEvents"]
        experiment_events = [e for e in events if e["name"] == "experiment"]
        assert len(experiment_events) == 2
        with open(paths["manifest"]) as handle:
            manifest = json.load(handle)
        assert manifest["experiments"] == ["table-1", "figure-7"]
        assert manifest["counters"]["solve_calls"] >= 1


class TestWorkerResults:
    def test_worker_spans_carry_worker_pid(self):
        import os

        obs.enable()

        obs.reset()
        results = run_all(quick=True, jobs=2, experiments=["figure-7"])
        payload = results[0].obs
        assert payload, "worker must ship spans back on result.obs"
        # Pool path: the payload pid is the worker's, not the parent's.
        # (On platforms without a usable pool, run_all legitimately
        # falls back to serial and the pids match — accept both, but
        # the spans must be present either way.)
        assert payload["spans"]
        if payload["pid"] != os.getpid():
            merged_pids = {s["pid"] for s in obs.trace().spans}
            assert payload["pid"] in merged_pids
