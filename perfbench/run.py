"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload validation --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; each workload runs in its own process.
``--trace 0`` times untraced passes for ``--seconds`` and reports the
end-to-end metrics from the fastest pass.  ``--trace 1`` alternates untraced and traced passes
and reports the per-layer ledger.  Metric names and units are the ones
``BENCHMARK.json`` declares.  Human-readable lines (provenance, every
metric with its unit, the wall-time tail, failed checks) come first; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A traced run also writes its recorded spans under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
#: Setup runs at least this many times, and until ``SETUP_SECONDS`` have
#: passed, before the passes, then once more between passes every
#: ``SETUP_EVERY`` seconds; ``setup_s`` is the fastest.
SETUP_REPEATS = 7
SETUP_SECONDS = 1.0
SETUP_EVERY = 2.0
#: Fewest untraced passes a run measures.
MIN_PASSES = 3


def prepare_environment() -> bool:
    """Put the checkout's ``src`` on the path; False if it is missing."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    # The compiled batch core caches its shared object under
    # XDG_CACHE_HOME; keep it inside the checkout.  Numeric libraries
    # stay single-threaded: the load is this one process.
    os.environ["XDG_CACHE_HOME"] = str(ROOT / ".perfbench_cache")
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path.insert(0, str(src))
    return True


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError) as error:
        return f"unavailable ({error})"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def provenance(workload) -> dict:
    return {
        "workload": workload.name,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        **workload.provenance(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not prepare_environment():
        print(
            f"perfbench: no repro package under {ROOT / 'src'}; run from the "
            "root of a full checkout",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import ledger
    from measure import Tally, best_of_parts, median, tail_percentile
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    recorder = tracing.SpanRecorder() if args.trace else None

    setup_times, setup_records = [], []

    def timed_setup(traced: bool):
        """Set up a fresh workload; the caller has freed the previous one."""
        gc.collect()
        fresh = WORKLOADS[args.workload]()
        patcher = None
        if traced:
            recorder.begin_pass(-1)
            patcher = ledger.install(recorder)
        start = time.perf_counter()
        try:
            fresh.setup(args.seed)
        finally:
            if patcher is not None:
                patcher.restore()
        setup_times.append(time.perf_counter() - start)
        if traced:
            setup_records.append(recorder.end_pass())
        return fresh

    setup_begin = time.perf_counter()
    workload = None
    while (
        len(setup_times) < SETUP_REPEATS
        or time.perf_counter() - setup_begin < SETUP_SECONDS
    ):
        workload = None
        workload = timed_setup(recorder is not None)

    tally = Tally()
    walls, parts, works, records, quality = [], [], [], [], []

    def one_pass(index: int, traced: bool):
        prepared = workload.prepare()
        gc.collect()
        patcher = None
        if traced:
            recorder.begin_pass(index)
            patcher = ledger.install(recorder)
        try:
            start = time.perf_counter()
            result = workload.run(prepared)
            wall = time.perf_counter() - start
        finally:
            if patcher is not None:
                patcher.restore()
                record = recorder.end_pass()
        if traced:
            record["wall_s"] = wall
            records.append(record)
        else:
            walls.append(wall)
            parts.append(result.parts or [wall])
            works.append(result.work)
        quality.append(result.quality)
        return workload.check(result)

    begin = last_setup = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - begin
        if args.trace:
            enough = bool(walls) and bool(records)
        else:
            enough = len(walls) >= MIN_PASSES
        if elapsed >= args.seconds and (enough or tally.failed):
            break
        traced = bool(args.trace) and index % 2 == 1
        tally.attempt(lambda: one_pass(index, traced))
        index += 1
        if time.perf_counter() - last_setup >= SETUP_EVERY:
            # A throwaway setup, so that setups sample the whole run.
            timed_setup(False)
            last_setup = time.perf_counter()
    tally.attempt(workload.run_checks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print("provenance:", json.dumps(provenance(workload), sort_keys=True))
    if not walls:
        print("perfbench: no pass completed", file=sys.stderr)
        for problem in tally.problems[:20]:
            print("FAILED:", problem, file=sys.stderr)
        return 1

    if args.trace:
        declared = spec["per_layer"]
        metrics = ledger.layer_metrics(
            records, quality, workload.layer_shape(), walls, setup_records
        )
    else:
        declared = spec["end_to_end"]
        # The fastest pass and setup: host interference only ever adds
        # time, and on a shared host it comes in stretches that move the
        # median of a run by up to a third while the minimum stays put.
        best = best_of_parts(parts)
        metrics = {
            "wall_s": best,
            "work_per_s": median(works) / best,
            "setup_s": min(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(
            "perfbench: metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(metrics))}",
            file=sys.stderr,
        )
        return 1

    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(f"work_per_s counts {workload.work_name}")
    print(f"wall median: {median(walls)!r} s over {len(walls)} samples")
    print(f"setup median: {median(setup_times)!r} s over {len(setup_times)} setups")
    tail = tail_percentile(walls)
    if tail is None:
        print(f"wall tail: n/a ({len(walls)} samples; a tail needs more than 10)")
    else:
        value, percentile, count = tail
        print(f"wall tail: p{percentile:.1f} = {value!r} s over {count} samples")
    print(
        f"operations: {tally.attempted} attempted, {tally.failed} failed, "
        f"failed_frac = {tally.failed_frac!r}"
    )
    for problem in tally.problems[:20]:
        print("FAILED:", problem)

    if recorder is not None:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"{workload.name}-seed{args.seed}-spans.npz"
        recorder.write(spans)
        print(
            f"spans: {spans.relative_to(ROOT)}; left out over the "
            f"{tracing.KEEP_SPANS}-span cap: {recorder.dropped_passes} traced "
            f"passes, {recorder.dropped_spans} spans"
        )

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
