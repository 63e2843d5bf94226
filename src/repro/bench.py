"""Benchmark baseline management: the ``repro-bench`` console script.

The benchmark suite leaves machine-readable rows at the repo root (one
``BENCH_<module>.json`` per module that ran — see
``benchmarks/conftest.py``).  Historically those rows vanished with the
working tree, so the perf trajectory of the repo was empty.  This tool
closes the loop:

* ``repro-bench snapshot`` copies the current repo-root ``BENCH_*.json``
  files into ``benchmarks/baselines/`` — the committed snapshot that
  records what the suite measured when the code landed — and writes a
  ``baseline_manifest.json`` beside them (via
  :func:`repro.obs.manifest.build_manifest`) recording the git SHA the
  rows were measured at and a SHA-256 digest of every copied file, so a
  baseline's provenance survives the copy;
* ``repro-bench compare`` diffs fresh rows against that snapshot and
  flags regressions: a ratio row's ``speedup_vs_reference`` that
  dropped by more than the threshold (default 20%), or a wall-clock row
  that grew by more than the (looser, noise-tolerant) wall threshold.
  Exit status 1 when anything regressed, so CI can gate on it.

Rows are matched by ``(bench, config)``; rows present on only one side
are reported but never fail the comparison (benchmarks come and go).
``load_rows`` globs ``BENCH_*.json`` only, so the manifest beside the
baselines never enters the comparison.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import sys
from typing import Dict, List, Optional, Tuple

__all__ = ["compare_rows", "load_rows", "main"]

#: Repo-root location of the committed snapshot.
DEFAULT_BASELINE_DIR = os.path.join("benchmarks", "baselines")

RowKey = Tuple[str, str]


def load_rows(directory: str) -> Dict[str, Dict[RowKey, dict]]:
    """``{module tag: {(bench, config): row}}`` for every BENCH json."""
    tables: Dict[str, Dict[RowKey, dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        tag = os.path.basename(path)[len("BENCH_"):-len(".json")]
        with open(path, "r", encoding="utf-8") as handle:
            rows = json.load(handle)
        tables[tag] = {(row["bench"], row["config"]): row for row in rows}
    return tables


def compare_rows(
    baseline: Dict[str, Dict[RowKey, dict]],
    current: Dict[str, Dict[RowKey, dict]],
    speedup_threshold: float,
    wall_threshold: float,
) -> Tuple[List[str], List[str]]:
    """(regressions, notes) from diffing current rows against baseline.

    A speedup row regresses when it fell below ``baseline * (1 -
    speedup_threshold)``; a wall-clock row regresses when it grew above
    ``baseline * (1 + wall_threshold)``.  Missing/new rows and
    improvements land in ``notes``.
    """
    regressions: List[str] = []
    notes: List[str] = []
    for tag, base_rows in sorted(baseline.items()):
        fresh_rows = current.get(tag)
        if fresh_rows is None:
            notes.append(f"[{tag}] no current BENCH_{tag}.json (not run)")
            continue
        for key, base in sorted(base_rows.items()):
            bench, config = key
            fresh = fresh_rows.get(key)
            label = f"[{tag}] {bench} ({config})"
            if fresh is None:
                notes.append(f"{label}: row missing from current run")
                continue
            base_speedup = base.get("speedup_vs_reference")
            fresh_speedup = fresh.get("speedup_vs_reference")
            if base_speedup and fresh_speedup:
                floor = base_speedup * (1.0 - speedup_threshold)
                if fresh_speedup < floor:
                    regressions.append(
                        f"{label}: speedup {base_speedup:.2f}x -> "
                        f"{fresh_speedup:.2f}x "
                        f"(allowed floor {floor:.2f}x)"
                    )
                elif fresh_speedup > base_speedup * (1.0 + speedup_threshold):
                    notes.append(
                        f"{label}: speedup improved "
                        f"{base_speedup:.2f}x -> {fresh_speedup:.2f}x"
                    )
            elif base.get("wall_s") and fresh.get("wall_s"):
                ceiling = base["wall_s"] * (1.0 + wall_threshold)
                if fresh["wall_s"] > ceiling:
                    regressions.append(
                        f"{label}: wall {base['wall_s']:.3f}s -> "
                        f"{fresh['wall_s']:.3f}s "
                        f"(allowed ceiling {ceiling:.3f}s)"
                    )
        for key in sorted(set(fresh_rows) - set(base_rows)):
            notes.append(f"[{tag}] {key[0]} ({key[1]}): new row (no baseline)")
    return regressions, notes


def _cmd_compare(args: argparse.Namespace) -> int:
    baseline = load_rows(args.baseline_dir)
    if not baseline:
        print(
            f"no BENCH_*.json baselines under {args.baseline_dir!r}; "
            "run `repro-bench snapshot` after a benchmark session",
            file=sys.stderr,
        )
        return 2
    current = load_rows(args.current_dir)
    regressions, notes = compare_rows(
        baseline, current, args.threshold, args.wall_threshold
    )
    for note in notes:
        print(f"note: {note}")
    if regressions:
        print(
            f"{len(regressions)} regression(s) beyond "
            f"{args.threshold:.0%} (wall: {args.wall_threshold:.0%}):"
        )
        for line in regressions:
            print(f"  REGRESSION {line}")
    else:
        print(
            f"no regressions beyond {args.threshold:.0%} "
            f"(wall: {args.wall_threshold:.0%}) across "
            f"{sum(len(rows) for rows in baseline.values())} baseline rows"
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "regressions": regressions,
                    "notes": notes,
                    "speedup_threshold": args.threshold,
                    "wall_threshold": args.wall_threshold,
                },
                handle,
                indent=2,
            )
    return 1 if regressions else 0


#: Filename of the provenance record written beside the baselines.
#: Distinct from the ``BENCH_*`` glob, so ``load_rows`` never sees it.
BASELINE_MANIFEST = "baseline_manifest.json"


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.obs.manifest import build_manifest

    paths = sorted(glob.glob(os.path.join(args.current_dir, "BENCH_*.json")))
    if not paths:
        print(
            f"no BENCH_*.json files under {args.current_dir!r}; run the "
            "benchmark suite first (pytest benchmarks/)",
            file=sys.stderr,
        )
        return 2
    os.makedirs(args.baseline_dir, exist_ok=True)
    digests: Dict[str, str] = {}
    for path in paths:
        name = os.path.basename(path)
        destination = os.path.join(args.baseline_dir, name)
        shutil.copyfile(path, destination)
        digests[name] = _file_sha256(destination)
        print(f"snapshot {path} -> {destination}")
    manifest = build_manifest(
        experiments=["bench-snapshot"],
        parameters={
            "command": "snapshot",
            "files": digests,
            "baseline_dir": args.baseline_dir,
        },
    )
    manifest_path = manifest.write(
        os.path.join(args.baseline_dir, BASELINE_MANIFEST)
    )
    print(f"manifest {manifest_path} (git {manifest.git_sha[:12]})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="compare benchmark rows against the committed baselines",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compare_parser = subparsers.add_parser(
        "compare", help="flag regressions against benchmarks/baselines/"
    )
    compare_parser.add_argument(
        "--baseline-dir", default=DEFAULT_BASELINE_DIR, metavar="DIR",
        help=f"committed snapshot directory (default: {DEFAULT_BASELINE_DIR})",
    )
    compare_parser.add_argument(
        "--current-dir", default=".", metavar="DIR",
        help="directory holding fresh BENCH_*.json rows (default: .)",
    )
    compare_parser.add_argument(
        "--threshold", type=float, default=0.20, metavar="FRACTION",
        help="speedup drop that counts as a regression (default: 0.20)",
    )
    compare_parser.add_argument(
        "--wall-threshold", type=float, default=0.50, metavar="FRACTION",
        help="wall-clock growth that counts as a regression — looser, "
        "since absolute times are machine-dependent (default: 0.50)",
    )
    compare_parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the comparison verdict as JSON",
    )
    compare_parser.set_defaults(func=_cmd_compare)

    snapshot_parser = subparsers.add_parser(
        "snapshot", help="copy repo-root BENCH_*.json into the baseline dir"
    )
    snapshot_parser.add_argument(
        "--baseline-dir", default=DEFAULT_BASELINE_DIR, metavar="DIR"
    )
    snapshot_parser.add_argument("--current-dir", default=".", metavar="DIR")
    snapshot_parser.set_defaults(func=_cmd_snapshot)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
