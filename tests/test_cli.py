"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, build_sim_parser, main, sim_main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_validates_experiment_names(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "figure-99"])

    def test_gain_requires_processors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["gain"])


class TestCommands:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure-3" in out
        assert "table-1" in out
        assert "ucl-vs-nucl" in out

    def test_run_table1(self, capsys):
        assert main(["run", "table-1"]) == 0
        out = capsys.readouterr().out
        assert "2x faster" in out
        assert "41.2" in out  # the paper column is printed alongside

    def test_run_quick_analytic_experiment(self, capsys):
        assert main(["run", "figure-7", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Expected gain" in out

    def test_gain_command(self, capsys):
        assert main(
            ["gain", "--processors", "1000", "--contexts", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "expected locality gain" in out

    def test_gain_with_slowdown(self, capsys):
        assert main(
            ["gain", "--processors", "1000", "--slowdown", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "slowdown = 8" in out

    @pytest.mark.parametrize("processors", ["0", "-5"])
    def test_gain_reports_bad_input_without_a_traceback(self, processors, capsys):
        assert main(["gain", "--processors", processors]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gain failed: ")
        assert "Traceback" not in err

    def test_symbols_command(self, capsys):
        assert main(["symbols"]) == 0
        out = capsys.readouterr().out
        assert "latency sensitivity" in out
        assert "T_h" in out

    def test_report_command(self, tmp_path, capsys, monkeypatch):
        # The CLI writes the whole registry; restrict it to one cheap
        # analytic experiment to smoke-test the flag plumbing.
        from repro.experiments import runner

        monkeypatch.setattr(
            runner, "REGISTRY", {"table-1": runner.REGISTRY["table-1"]}
        )
        target = tmp_path / "out.md"
        assert main(["report", "--output", str(target)]) == 0
        assert "## table-1:" in target.read_text()
        assert f"report written to {target}" in capsys.readouterr().out


class TestRunFlags:
    def test_run_without_experiment_or_all_errors(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_run_accepts_jobs_flag(self):
        args = build_parser().parse_args(["run", "--all", "--jobs", "4"])
        assert args.run_all is True
        assert args.jobs == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "table-1", "--jobs", "0"],
            ["run", "--all", "--jobs", "-3"],
        ],
    )
    def test_jobs_below_one_is_a_usage_error(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2

    def test_replicate_jobs_below_one_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exit_info:
            sim_main(["replicate", "--jobs", "0"])
        assert exit_info.value.code == 2

    def test_run_verbose_prints_perf_counters(self, capsys):
        assert main(["run", "figure-6", "--quick", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "[perf] figure-6:" in out
        assert "solve_calls" in out

    def test_run_without_verbose_omits_perf(self, capsys):
        assert main(["run", "figure-6", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "[perf]" not in out


class TestTelemetryFlag:
    def test_run_all_rejects_telemetry(self):
        with pytest.raises(SystemExit):
            main(["run", "--all", "--telemetry"])

    def test_run_telemetry_on_analytic_experiment_fails_cleanly(self, capsys):
        # figure-6 is analytic: no fabric to instrument.  The gate turns
        # this into a clean error instead of a silently ignored flag.
        assert main(["run", "figure-6", "--quick", "--telemetry"]) == 1
        err = capsys.readouterr().err
        assert "does not support --telemetry" in err
        assert "scaling-sim" in err  # the supported set is named


class TestSimCli:
    def test_probe_smoke(self, capsys):
        assert sim_main(
            [
                "probe", "--workload", "tree_saturation", "--radix", "4",
                "--cycles", "200", "--epoch", "32",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "tree_saturation probe" in out
        assert "rho model" in out  # the contention comparison table
        assert "tree saturation onset" in out
        assert "link utilization" in out  # the heatmap header

    def test_probe_writes_artifact_bundle(self, tmp_path, capsys):
        from repro import obs

        enabled_before = obs.is_enabled()
        try:
            assert sim_main(
                [
                    "probe", "--workload", "uniform", "--radix", "4",
                    "--cycles", "150", "--epoch", "32",
                    "--output", str(tmp_path),
                ]
            ) == 0
        finally:
            obs.reset()
            if not enabled_before:
                obs._STATE.enabled = False
        for name in (
            "telemetry.jsonl", "saturation.json", "heatmap.txt",
            "trace.json", "manifest.json",
        ):
            assert (tmp_path / name).exists(), name
        report = json.loads((tmp_path / "saturation.json").read_text())
        assert report["workload"] == "uniform"
        assert report["delivered"] > 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["parameters"]["telemetry"]["epoch_cycles"] == 32
        trace = json.loads((tmp_path / "trace.json").read_text())
        counters = [
            e for e in trace["traceEvents"] if e.get("ph") == "C"
        ]
        assert counters and counters[0]["name"] == "fabric.telemetry"

    def test_probe_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_sim_parser().parse_args(["probe", "--workload", "bogus"])

    def test_replicate_telemetry_smoke(self, tmp_path, capsys):
        target = tmp_path / "replicate.json"
        assert sim_main(
            [
                "replicate", "--radix", "4", "--seeds", "2",
                "--warmup", "300", "--measure", "1200",
                "--telemetry", "--telemetry-epoch", "128",
                "--json", str(target),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "telemetry (merged[2x" in out
        assert "link rho mean" in out
        assert "worm latency mean" in out
        payload = json.loads(target.read_text())
        telemetry = payload["telemetry"]
        assert telemetry["delivered"] > 0
        assert telemetry["epoch_cycles"] == 128
        assert len(telemetry["busy"]) == len(telemetry["depth"])

    def test_replicate_without_telemetry_omits_the_block(
        self, tmp_path, capsys
    ):
        target = tmp_path / "replicate.json"
        assert sim_main(
            [
                "replicate", "--radix", "4", "--seeds", "1",
                "--warmup", "200", "--measure", "600",
                "--json", str(target),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "telemetry" not in out
        assert "telemetry" not in json.loads(target.read_text())

    @pytest.mark.parametrize("switching", ["cut_through", "wormhole"])
    def test_replicate_rejects_negative_warmup(self, switching, capsys):
        assert sim_main(
            [
                "replicate", "--radix", "4", "--seeds", "1",
                "--warmup", "-1", "--switching", switching,
            ]
        ) == 1
        captured = capsys.readouterr()
        assert captured.err == "replicate failed: warmup must be >= 0, got -1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag, message", [
        (["--radix", "1"], "radix must be >= 2, got 1"),
        (["--cycles", "0"], "cycles must be >= 1, got 0"),
    ])
    def test_probe_rejects_invalid_sizes(self, flag, message, capsys):
        assert sim_main(["probe", "--workload", "uniform", *flag]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"probe failed: {message}\n"
        assert captured.out == ""
