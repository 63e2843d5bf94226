"""Benchmarks: the wormhole fabric's attached-telemetry cost.

Two entry points, mirroring ``bench_mapping.py``:

* ``pytest benchmarks/bench_simulator.py --benchmark-only`` — the
  telemetry-overhead row, asserting that attaching telemetry never
  perturbs simulation results.
* ``python benchmarks/bench_simulator.py [--quick] [--output FILE]
  [--workload NAME]`` — script mode for CI: runs the telemetry-overhead
  row on one probe workload (default ``uniform``), writes a JSON
  artifact with ``{bench, config, wall_s, speedup_vs_reference}`` rows,
  and exits 1 when a check in :func:`script_checks` fails.

The row drives :class:`repro.sim.wormhole.WormholeFabric` twice over the
same :func:`repro.sim.telemetry.probe_schedule` — telemetry detached vs
attached — and records ``on/off`` wall as its speedup column, so
``repro-bench compare`` flags the telemetry-off hot path getting slower
(one guarded branch per tick and per grant when detached).  Parity
between the two runs is always asserted: telemetry must never perturb
simulation results.

Cut-through machines, the Section 3.3 validation pipeline and the
event-calendar engine are measured by ``perfbench/`` (``validation`` and
``light_scaling``); the engine's parity with the per-cycle loop is
pinned by ``tests/sim/test_machine_engine.py`` and
``tests/properties/test_engine_parity.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.sim.message import Message
from repro.sim.telemetry import PROBE_WORKLOADS, TelemetryConfig, probe_schedule
from repro.sim.wormhole import WormholeFabric
from repro.topology.torus import Torus

STRICT = os.environ.get("REPRO_BENCH_STRICT") == "1"

#: Script-mode budget for the attached-telemetry cost, in percent.
TELEMETRY_OVERHEAD_BUDGET_PCT = 15


def _drive(radix, dimensions, plan, telemetry=None):
    """Run the fabric over a schedule; return (seconds, deliveries, flits)."""
    torus = Torus(radix=radix, dimensions=dimensions)
    delivered = []
    fabric = WormholeFabric(torus, on_delivery=delivered.append)
    if telemetry is not None:
        instrumentation = fabric.attach_telemetry(telemetry)
    began = time.perf_counter()
    cycle = 0
    for cycle, injections in enumerate(plan):
        for kind, source, destination, tag in injections:
            fabric.inject(
                Message(kind, source, destination, (0, 0), tag), cycle
            )
        fabric.tick(cycle)
    while not fabric.quiescent():
        cycle += 1
        fabric.tick(cycle)
    seconds = time.perf_counter() - began
    if telemetry is not None:
        instrumentation.finalize(cycle + 1)
    deliveries = sorted(
        (
            worm.message.transaction,
            worm.message.injected_at,
            worm.message.delivered_at,
            worm.message.source,
            worm.message.destination,
            worm.hops,
            worm.source_wait,
        )
        for worm in delivered
    )
    return seconds, deliveries, fabric.link_flits


def measure_telemetry_overhead(quick=False, workload="uniform"):
    """Fabric wall time with telemetry detached vs attached, same plan.

    ``speedup_vs_reference`` is ``on_wall / off_wall`` — the attached
    run standing in for the "reference" — so a drop below the committed
    baseline means the *detached* hot path got slower, which is the
    regression the zero-cost-when-off promise forbids.
    ``overhead_pct`` is the attached run's relative cost, informational.
    """
    radix = 8 if quick else 16
    cycles = 600 if quick else 1500
    plan = probe_schedule(radix, 2, cycles, workload)
    # A discarded warmup pair, then three alternating pairs with best-of
    # per side.  Telemetry's true attached cost is a few percent, which
    # single-shot millisecond-scale drives cannot resolve — an early
    # version of this row ran one pair and reported scheduler jitter
    # (±15% and worse) as telemetry overhead.
    _drive(radix, 2, plan)
    _drive(radix, 2, plan, telemetry=TelemetryConfig())
    off_seconds, off_deliveries, off_flits = _drive(radix, 2, plan)
    on_seconds, on_deliveries, on_flits = _drive(
        radix, 2, plan, telemetry=TelemetryConfig()
    )
    for _ in range(2):
        off_seconds = min(off_seconds, _drive(radix, 2, plan)[0])
        on_seconds = min(
            on_seconds,
            _drive(radix, 2, plan, telemetry=TelemetryConfig())[0],
        )
    return {
        "bench": f"{workload}_telemetry",
        "config": f"radix-{radix} 2-D torus, {cycles} cycles, off vs on",
        "wall_s": round(off_seconds, 4),
        "telemetry_wall_s": round(on_seconds, 4),
        "speedup_vs_reference": round(on_seconds / off_seconds, 2),
        "overhead_pct": round((on_seconds / off_seconds - 1.0) * 100, 1),
        "parity": (
            on_deliveries == off_deliveries and on_flits == off_flits
        ),
        "messages": len(off_deliveries),
    }


# ----------------------------------------------------------------------
# pytest benchmarks.
# ----------------------------------------------------------------------


def test_telemetry_overhead(bench_record):
    """Telemetry never perturbs results; detached cost is pinned.

    Parity between the detached and attached runs always runs; the
    detached cost is enforced by ``repro-bench compare`` against the
    committed ``uniform_telemetry`` baseline row, not by a wall-clock
    assert here (shared runners are too noisy for that).
    """
    row = measure_telemetry_overhead(quick=not STRICT)
    assert row["parity"], f"telemetry perturbed simulation results: {row}"
    bench_record(
        row["bench"], row["config"], row["wall_s"],
        row["speedup_vs_reference"],
    )


# ----------------------------------------------------------------------
# Script mode (CI).
# ----------------------------------------------------------------------


def script_checks(row):
    """Script-mode gates; returns the failures (empty when all pass).

    The row must keep parity and bound the attached-telemetry cost
    below ``TELEMETRY_OVERHEAD_BUDGET_PCT``.
    """
    problems = []
    if not row["parity"]:
        problems.append(f"{row['bench']} ({row['config']}): parity lost")
    if row["overhead_pct"] >= TELEMETRY_OVERHEAD_BUDGET_PCT:
        problems.append(f"attached telemetry overhead above budget: {row}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="wormhole fabric telemetry-overhead guard (script mode)"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small fabric (radix 8, 600 cycles)",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the measurements as JSON to FILE",
    )
    parser.add_argument(
        "--workload", choices=sorted(PROBE_WORKLOADS), default="uniform",
        help="probe workload to drive (default: uniform)",
    )
    args = parser.parse_args(argv)
    row = measure_telemetry_overhead(quick=args.quick, workload=args.workload)
    print(
        f"{row['bench']:<20} {row['config']:<38} "
        f"off {row['wall_s']}s, on {row['telemetry_wall_s']}s "
        f"(parity: {row['parity']})"
    )
    print(
        "telemetry on/off ratio", row["speedup_vs_reference"],
        "- overhead", row["overhead_pct"], "%",
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump([row], handle, indent=2)
        print(f"report written to {args.output}")
    problems = script_checks(row)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
