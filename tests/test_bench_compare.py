"""Unit tests for the repro-bench baseline comparison logic."""

import hashlib
import json
import os

from repro.bench import BASELINE_MANIFEST, compare_rows, load_rows, main


def _tables(rows):
    return {"simulator": {(r["bench"], r["config"]): r for r in rows}}


def _row(bench, wall_s=1.0, speedup=None):
    return {
        "bench": bench,
        "config": "cfg",
        "wall_s": wall_s,
        "speedup_vs_reference": speedup,
    }


def test_no_regressions_on_identical_rows():
    rows = _tables([_row("uniform", 0.5, 1.4)])
    regressions, notes = compare_rows(rows, rows, 0.2, 0.5)
    assert regressions == []
    assert notes == []


def test_speedup_drop_beyond_threshold_flagged():
    base = _tables([_row("uniform", 0.5, 2.0)])
    fresh = _tables([_row("uniform", 0.5, 1.5)])
    regressions, _ = compare_rows(base, fresh, 0.2, 0.5)
    assert len(regressions) == 1
    assert "uniform" in regressions[0]


def test_speedup_drop_within_threshold_passes():
    base = _tables([_row("uniform", 0.5, 2.0)])
    fresh = _tables([_row("uniform", 0.5, 1.7)])
    regressions, _ = compare_rows(base, fresh, 0.2, 0.5)
    assert regressions == []


def test_wall_growth_beyond_threshold_flagged():
    base = _tables([_row("fig7", wall_s=1.0)])
    fresh = _tables([_row("fig7", wall_s=2.0)])
    regressions, _ = compare_rows(base, fresh, 0.2, 0.5)
    assert len(regressions) == 1


def test_speedup_row_ignores_wall_noise():
    # Rows carrying a speedup are judged on the speedup only; their
    # wall clock is machine-dependent and may legitimately drift.
    base = _tables([_row("uniform", wall_s=0.1, speedup=1.5)])
    fresh = _tables([_row("uniform", wall_s=5.0, speedup=1.5)])
    regressions, _ = compare_rows(base, fresh, 0.2, 0.5)
    assert regressions == []


def test_missing_and_new_rows_are_notes_not_failures():
    base = _tables([_row("gone", 1.0)])
    fresh = _tables([_row("new", 1.0)])
    regressions, notes = compare_rows(base, fresh, 0.2, 0.5)
    assert regressions == []
    assert any("gone" in note for note in notes)
    assert any("new" in note for note in notes)


def test_missing_module_is_a_note():
    base = _tables([_row("uniform", 1.0)])
    regressions, notes = compare_rows(base, {}, 0.2, 0.5)
    assert regressions == []
    assert any("not run" in note for note in notes)


def _write_bench_rows(directory, name="BENCH_simulator.json"):
    rows = [_row("uniform", 0.5, 1.4)]
    path = os.path.join(str(directory), name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(rows, handle)
    return path


class TestSnapshotManifest:
    def test_snapshot_writes_provenance_manifest(self, tmp_path):
        current = tmp_path / "current"
        baselines = tmp_path / "baselines"
        current.mkdir()
        _write_bench_rows(current)
        assert main(
            [
                "snapshot",
                "--current-dir", str(current),
                "--baseline-dir", str(baselines),
            ]
        ) == 0
        manifest_path = baselines / BASELINE_MANIFEST
        assert manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["experiments"] == ["bench-snapshot"]
        assert manifest["parameter_hash"]
        digests = manifest["parameters"]["files"]
        assert set(digests) == {"BENCH_simulator.json"}
        copied = baselines / "BENCH_simulator.json"
        expected = hashlib.sha256(copied.read_bytes()).hexdigest()
        assert digests["BENCH_simulator.json"] == expected

    def test_snapshot_with_no_rows_fails(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(
            [
                "snapshot",
                "--current-dir", str(empty),
                "--baseline-dir", str(tmp_path / "baselines"),
            ]
        ) == 2

    def test_load_rows_ignores_the_manifest(self, tmp_path):
        current = tmp_path / "current"
        baselines = tmp_path / "baselines"
        current.mkdir()
        _write_bench_rows(current)
        main(
            [
                "snapshot",
                "--current-dir", str(current),
                "--baseline-dir", str(baselines),
            ]
        )
        tables = load_rows(str(baselines))
        assert set(tables) == {"simulator"}

    def test_compare_against_own_snapshot_is_clean(self, tmp_path):
        current = tmp_path / "current"
        baselines = tmp_path / "baselines"
        current.mkdir()
        _write_bench_rows(current)
        main(
            [
                "snapshot",
                "--current-dir", str(current),
                "--baseline-dir", str(baselines),
            ]
        )
        assert main(
            [
                "compare",
                "--current-dir", str(current),
                "--baseline-dir", str(baselines),
            ]
        ) == 0


def test_committed_manifest_matches_the_baselines():
    """The committed manifest describes exactly the committed rows."""
    from repro.obs.manifest import parameter_hash

    directory = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "benchmarks",
        "baselines",
    )
    with open(os.path.join(directory, BASELINE_MANIFEST), "rb") as handle:
        manifest = json.load(handle)
    digests = manifest["parameters"]["files"]
    committed = {
        name
        for name in os.listdir(directory)
        if name.startswith("BENCH_") and name.endswith(".json")
    }
    assert set(digests) == committed
    for name, digest in digests.items():
        with open(os.path.join(directory, name), "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == digest, name
    assert manifest["parameter_hash"] == parameter_hash(
        manifest["parameters"]
    )
