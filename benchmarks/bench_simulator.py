"""Benchmarks: the array fabric kernel vs the object reference.

Two entry points, mirroring ``bench_mapping.py``:

* ``pytest benchmarks/bench_simulator.py --benchmark-only`` — timed runs
  of the wormhole machine and of the fabric workload suite, the latter
  asserting cycle-exact parity between
  :class:`repro.sim.kernel.FabricKernel` and
  :class:`repro.sim.reference.ReferenceTorusFabric`.
* ``python benchmarks/bench_simulator.py [--quick] [--output FILE]
  [--workload NAME]`` — script mode for CI smoke: runs the workload
  suite (or just ``NAME`` plus its telemetry-overhead row), writes a
  JSON artifact with ``{bench, config, wall_s, speedup_vs_reference}``
  rows, and exits 1 when a check in :func:`script_checks` fails.

The telemetry-overhead row drives the kernel twice over the same
schedule — telemetry detached vs attached — and records ``on/off`` wall
as its speedup column, so ``repro-bench compare`` flags the
telemetry-off hot path getting slower (the tentpole promise: one
guarded branch per tick and per grant when detached).  Parity between
the two runs is always asserted: telemetry must never perturb
simulation results.

Cut-through machines, the Section 3.3 validation pipeline and the
event-calendar engine are measured by ``perfbench/`` (``validation`` and
``light_scaling``); the engine's parity with the per-cycle loop is
pinned by ``tests/sim/test_machine_engine.py`` and
``tests/properties/test_engine_parity.py``.

The headline row is ``tree_saturation``: every message targets a few
hot ejection ports, so blocked-channel trees grow across the fabric and
almost no channel changes hands per cycle — exactly where the kernel's
event-driven arbitration (touch only channels that can change) beats the
reference's full pending-list scan by an order of magnitude.  Uniform
light traffic is the kernel's *worst* regime (grants dominate both
implementations) and is reported alongside for honesty.

Timing assertions (the >= 5x floor on the headline workload) only fire
under ``REPRO_BENCH_STRICT=1`` so shared CI runners cannot flake the
suite; parity assertions always run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from repro.mapping.strategies import identity_mapping
from repro.sim.config import SimulationConfig
from repro.sim.kernel import FabricKernel
from repro.sim.machine import Machine
from repro.sim.message import Message, MessageKind
from repro.sim.reference import ReferenceTorusFabric
from repro.sim.telemetry import TelemetryConfig
from repro.topology.graphs import torus_neighbor_graph
from repro.topology.torus import Torus
from repro.workload.synthetic import build_programs

SEED = 1992
STRICT = os.environ.get("REPRO_BENCH_STRICT") == "1"

#: Script-mode budget for the attached-telemetry cost, in percent.
TELEMETRY_OVERHEAD_BUDGET_PCT = 15

#: Fabric workload suite: injection rate is mean messages per cycle
#: machine-wide; ``hot`` is the fraction of traffic aimed at the
#: ``hot_count`` lowest-numbered nodes; ``data`` switches to 24-flit
#: data replies.  A single hot node grows the deepest blocked-channel
#: trees — the canonical tree-saturation stress.
WORKLOADS = {
    "uniform": dict(rate=0.4, hot=0.0, hot_count=4, data=False),
    "saturated": dict(rate=2.0, hot=0.0, hot_count=4, data=False),
    "hotspot50": dict(rate=1.5, hot=0.5, hot_count=4, data=True),
    "tree_saturation": dict(rate=1.5, hot=1.0, hot_count=1, data=True),
}
HEADLINE = "tree_saturation"


def _schedule(radix, dimensions, cycles, spec, seed=SEED):
    """Pre-generated per-cycle injection lists (identical for both runs)."""
    rng = random.Random(seed)
    nodes = radix**dimensions
    hot_nodes = tuple(range(min(spec["hot_count"], nodes)))
    kind = MessageKind.DATA_REPLY if spec["data"] else MessageKind.READ_REQUEST
    whole, fractional = divmod(spec["rate"], 1)
    plan = []
    tag = 0
    for _ in range(cycles):
        injections = []
        attempts = int(whole) + (1 if rng.random() < fractional else 0)
        for _ in range(attempts):
            source = rng.randrange(nodes)
            if rng.random() < spec["hot"]:
                destination = rng.choice(hot_nodes)
            else:
                destination = rng.randrange(nodes)
            if source != destination:
                injections.append((kind, source, destination, tag))
                tag += 1
        plan.append(injections)
    return plan


def _drive(fabric_cls, radix, dimensions, plan, telemetry=None):
    """Run one fabric over a schedule; return (seconds, deliveries, flits)."""
    torus = Torus(radix=radix, dimensions=dimensions)
    delivered = []
    fabric = fabric_cls(torus, on_delivery=delivered.append)
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


def measure_workload(name, radix=16, dimensions=2, cycles=1500, best_of=1):
    """Time kernel vs reference on one workload; verify exact parity.

    ``best_of`` takes the minimum wall clock of N alternating
    reference/kernel drives (parity checked on every round).  The
    quick-mode rows finish in single-digit milliseconds, where one-shot
    ratios carry ±20% scheduler jitter — the committed baselines are
    snapshotted best-of-N so the ``repro-bench compare`` gate watches
    the kernel, not the scheduler.
    """
    plan = _schedule(radix, dimensions, cycles, WORKLOADS[name])
    ref_seconds = kernel_seconds = float("inf")
    parity = True
    messages = 0
    for _ in range(max(1, best_of)):
        seconds, ref_deliveries, ref_flits = _drive(
            ReferenceTorusFabric, radix, dimensions, plan
        )
        ref_seconds = min(ref_seconds, seconds)
        seconds, kernel_deliveries, kernel_flits = _drive(
            FabricKernel, radix, dimensions, plan
        )
        kernel_seconds = min(kernel_seconds, seconds)
        parity = parity and (
            kernel_deliveries == ref_deliveries and kernel_flits == ref_flits
        )
        messages = len(kernel_deliveries)
    return {
        "bench": name,
        "config": f"radix-{radix} {dimensions}-D torus, {cycles} cycles",
        "wall_s": round(kernel_seconds, 4),
        "reference_wall_s": round(ref_seconds, 4),
        "speedup_vs_reference": round(ref_seconds / kernel_seconds, 2),
        "parity": parity,
        "messages": messages,
    }


def measure_suite(quick=False, best_of=1):
    """The full workload suite (smaller fabric/windows under ``quick``)."""
    radix = 8 if quick else 16
    cycles = 300 if quick else 1500
    return [
        measure_workload(name, radix=radix, cycles=cycles, best_of=best_of)
        for name in WORKLOADS
    ]


def measure_telemetry_overhead(quick=False, workload="uniform"):
    """Kernel wall time with telemetry detached vs attached, same plan.

    ``speedup_vs_reference`` is ``on_wall / off_wall`` — the attached
    run standing in for the "reference" — so a drop below the committed
    baseline means the *detached* hot path got slower, which is the
    regression the tentpole's zero-cost-when-off promise forbids.
    ``overhead_pct`` is the attached run's relative cost, informational.
    """
    radix = 8 if quick else 16
    cycles = 600 if quick else 1500
    plan = _schedule(radix, 2, cycles, WORKLOADS[workload])
    # A discarded warmup pair, then three alternating pairs with best-of
    # per side.  Telemetry's true attached cost is a few percent, which
    # single-shot millisecond-scale drives cannot resolve — an early
    # version of this row ran one pair and reported scheduler jitter
    # (±15% and worse) as telemetry overhead.
    _drive(FabricKernel, radix, 2, plan)
    _drive(FabricKernel, radix, 2, plan, telemetry=TelemetryConfig())
    off_seconds, off_deliveries, off_flits = _drive(
        FabricKernel, radix, 2, plan
    )
    on_seconds, on_deliveries, on_flits = _drive(
        FabricKernel, radix, 2, plan, telemetry=TelemetryConfig()
    )
    for _ in range(2):
        off_seconds = min(
            off_seconds, _drive(FabricKernel, radix, 2, plan)[0]
        )
        on_seconds = min(
            on_seconds,
            _drive(
                FabricKernel, radix, 2, plan, telemetry=TelemetryConfig()
            )[0],
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


def test_wormhole_simulator_throughput(benchmark):
    """Network cycles per second, 64-node machine, rigid worms."""
    config = SimulationConfig(
        contexts=2,
        switching="wormhole",
        warmup_network_cycles=0,
        measure_network_cycles=4000,
    )
    graph = torus_neighbor_graph(8, 2)

    def run():
        programs = build_programs(
            graph, 2, config.compute_cycles, config.compute_jitter
        )
        machine = Machine(config, identity_mapping(64), programs)
        return machine.run(warmup=500, measure=4000)

    summary = benchmark(run)
    assert summary.messages_sent > 0


def test_fabric_kernel_speedup(bench_record):
    """The headline claim: >= 5x on the tree-saturation workload.

    Always checks cycle-exact parity on every workload; only enforces
    the timing floor under ``REPRO_BENCH_STRICT=1``.  Rows run best-of-3
    so the BENCH json this session leaves behind (the compare gate's
    input) is not a single-shot number.
    """
    rows = measure_suite(quick=not STRICT, best_of=3)
    for row in rows:
        assert row["parity"], f"kernel diverged from reference: {row}"
        bench_record(
            row["bench"], row["config"], row["wall_s"],
            row["speedup_vs_reference"],
        )
    if STRICT:
        headline = next(r for r in rows if r["bench"] == HEADLINE)
        assert headline["speedup_vs_reference"] >= 5.0, headline


def test_telemetry_overhead(bench_record):
    """Telemetry never perturbs results; detached cost is pinned.

    Parity between the detached and attached runs always runs; the
    ≤ 2% detached-overhead claim is enforced by ``repro-bench compare``
    against the committed ``uniform_telemetry`` baseline row, not by a
    wall-clock assert here (shared runners are too noisy for that).
    """
    row = measure_telemetry_overhead(quick=not STRICT)
    assert row["parity"], f"telemetry perturbed simulation results: {row}"
    bench_record(
        row["bench"], row["config"], row["wall_s"],
        row["speedup_vs_reference"],
    )


# ----------------------------------------------------------------------
# Script mode (CI smoke).
# ----------------------------------------------------------------------


def script_checks(rows, single_workload):
    """Script-mode gates; returns the failures (empty when all pass).

    Every row must keep parity.  A single-workload run (the telemetry
    overhead guard) also bounds the attached-telemetry cost below
    ``TELEMETRY_OVERHEAD_BUDGET_PCT``.  A full-suite run checks that
    the light-traffic kernel rows are present and measured.
    """
    problems = [
        f"{row['bench']} ({row['config']}): parity lost"
        for row in rows
        if not row["parity"]
    ]
    by_bench = {row["bench"]: row for row in rows}
    if single_workload:
        for row in rows:
            if not row["bench"].endswith("_telemetry"):
                continue
            print(
                "telemetry on/off ratio", row["speedup_vs_reference"],
                "- overhead", row["overhead_pct"], "%",
            )
            if row["overhead_pct"] >= TELEMETRY_OVERHEAD_BUDGET_PCT:
                problems.append(
                    f"attached telemetry overhead above budget: {row}"
                )
        return problems
    light = [by_bench.get(bench) for bench in ("uniform", "saturated")]
    if None in light or not all(r["speedup_vs_reference"] > 0 for r in light):
        problems.append(f"light-traffic kernel rows missing or empty: {light}")
    else:
        print({r["bench"]: r["speedup_vs_reference"] for r in light})
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fabric kernel speedup measurement (script mode)"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small fabric (radix 8, 300 cycles) for CI smoke",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the measurements as JSON to FILE",
    )
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), default=None,
        help="run a single workload (plus its telemetry-overhead row) "
        "instead of the full suite",
    )
    parser.add_argument(
        "--best-of", type=int, default=1, metavar="N",
        help="take the best wall clock of N drives per workload row "
        "(default: 1)",
    )
    args = parser.parse_args(argv)
    if args.workload:
        radix = 8 if args.quick else 16
        cycles = 300 if args.quick else 1500
        rows = [
            measure_workload(
                args.workload, radix=radix, cycles=cycles,
                best_of=args.best_of,
            )
        ]
        rows.append(
            measure_telemetry_overhead(
                quick=args.quick, workload=args.workload
            )
        )
    else:
        rows = measure_suite(quick=args.quick, best_of=args.best_of)
        rows.append(measure_telemetry_overhead(quick=args.quick))
    for row in rows:
        print(
            f"{row['bench']:<20} {row['config']:<38} "
            f"kernel {row['wall_s']}s -> "
            f"{row['speedup_vs_reference']}x "
            f"(parity: {row['parity']})"
        )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=2)
        print(f"report written to {args.output}")
    problems = script_checks(rows, single_workload=bool(args.workload))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
