"""Command-line interface: ``repro-locality`` / ``python -m repro.cli``.

Subcommands:

* ``list`` — show the reproducible experiments;
* ``run <id> [--quick]`` — run one experiment and print its report;
* ``run --all [--jobs N]`` — run every experiment, optionally across
  worker processes (reports are identical to a serial run);
* ``diagnose <id>`` — run one experiment with solver convergence
  diagnostics on and report per-solve iteration counts, branch
  selection, and flagged (near-non-convergent or saturated) solves;
* ``anneal [--pattern NAME] [--chains R] ...`` — multi-chain
  annealing search for a low-distance mapping of a communication
  pattern onto a torus;
* ``gain --processors N [--contexts P] [--slowdown F]`` — one-off
  expected-gain query against the calibrated Alewife system.

Experiment ids accept compact aliases: ``fig3`` == ``figure-3``,
``table1`` == ``table-1``.

``--verbose`` on ``run`` appends per-experiment solver counters
and wall time after each report — including partial counts (with a
``FAILED`` marker) when an experiment raises.  ``--trace DIR`` on
``run`` enables the observability layer and writes a Chrome
trace (``trace.json``, loadable in ``chrome://tracing`` / Perfetto), raw
span records (``trace.jsonl``), and a provenance manifest
(``manifest.json``) into ``DIR``.

A second console script, ``repro-sim`` (:func:`sim_main`), fronts the
cycle-level simulator directly:

* ``replicate`` — run one machine configuration under several root
  seeds and print mean / std / 95% CI for every measured metric.
  Cut-through seeds run as one pass of the compiled core, on threads;
  ``--jobs`` fans serial machines (wormhole, ``--telemetry``) over
  worker processes.  Per-seed results are identical either way.
  ``--json FILE`` dumps the per-seed summaries and aggregates,
  ``--trace DIR`` writes the usual trace + manifest with the
  replication seeds recorded, and
  ``--telemetry`` instruments every replication's fabric
  (:mod:`repro.sim.telemetry`) and prints the merged per-link
  utilization, latency distribution, and tree-saturation verdict;
* ``probe`` — drive one fabric-level workload (uniform / saturated /
  hotspot50 / tree_saturation) under per-channel telemetry and print
  the model-vs-measured contention table, the saturation-onset report,
  and a link-load heatmap; ``--output DIR`` writes ``telemetry.jsonl``,
  ``heatmap.txt``, ``saturation.json``, and a Chrome trace whose
  counter tracks carry the per-epoch congestion series.

``repro-locality run <id> --telemetry`` asks experiments that replicate
on the simulator (currently ``scaling-sim``) to run instrumented and
append their model-vs-measured contention table.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import obs
from repro.errors import ReproError
from repro.experiments.alewife import alewife_system
from repro.experiments.result import render_perf_line
from repro.experiments.runner import (
    experiment_ids,
    resolve_experiment_id,
    run_all,
    run_experiment,
)

__all__ = ["main", "build_parser", "sim_main", "build_sim_parser"]


def _jobs(text: str) -> int:
    """argparse type for ``--jobs``: a worker-process count >= 1."""
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    """The repro-locality argument parser (exposed for testing/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-locality",
        description=(
            "Reproduction of Johnson (ISCA 1992): The Impact of "
            "Communication Locality on Large-Scale Multiprocessor "
            "Performance"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list reproducible experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument(
        "experiment", nargs="?", choices=experiment_ids(),
        type=resolve_experiment_id, metavar="EXPERIMENT",
        help="experiment id or alias, e.g. figure-3 / fig3 (omit with --all)",
    )
    run_parser.add_argument(
        "--all", action="store_true", dest="run_all",
        help="run every registered experiment",
    )
    run_parser.add_argument(
        "--quick", action="store_true",
        help="shorter simulation windows / coarser sweeps",
    )
    run_parser.add_argument(
        "--jobs", type=_jobs, default=1, metavar="N",
        help="worker processes for --all (default: 1, serial)",
    )
    run_parser.add_argument(
        "--verbose", action="store_true",
        help="print per-experiment perf counters and wall time",
    )
    run_parser.add_argument(
        "--trace", metavar="DIR", default=None,
        help="enable observability; write Chrome trace + manifest to DIR",
    )
    run_parser.add_argument(
        "--telemetry", action="store_true",
        help="instrument simulator replications with per-channel fabric "
        "telemetry (supported by scaling-sim)",
    )

    diagnose_parser = subparsers.add_parser(
        "diagnose",
        help="run one experiment with solver convergence diagnostics",
    )
    diagnose_parser.add_argument(
        "experiment", choices=experiment_ids(),
        type=resolve_experiment_id, metavar="EXPERIMENT",
        help="experiment id or alias, e.g. figure-3 / fig3",
    )
    diagnose_parser.add_argument(
        "--quick", action="store_true",
        help="shorter simulation windows / coarser sweeps",
    )
    diagnose_parser.add_argument(
        "--threshold", type=float, default=0.95, metavar="RHO",
        help="flag operating points with utilization above RHO "
        "(default: 0.95)",
    )

    anneal_parser = subparsers.add_parser(
        "anneal",
        help="multi-chain annealing search for a low-distance mapping",
    )
    anneal_parser.add_argument(
        "--pattern", default="torus-neighbor", metavar="NAME",
        help="communication pattern: torus-neighbor, 9pt-stencil, ring, "
        "butterfly, star, all-to-all (default: torus-neighbor)",
    )
    anneal_parser.add_argument(
        "--radix", type=int, default=8, metavar="K",
        help="torus radix k (default: 8)",
    )
    anneal_parser.add_argument(
        "--dimensions", type=int, default=2, metavar="N",
        help="torus dimensions n (default: 2)",
    )
    anneal_parser.add_argument(
        "--chains", type=int, default=4, metavar="R",
        help="independent restart chains (default: 4)",
    )
    anneal_parser.add_argument(
        "--steps", type=int, default=5000, metavar="S",
        help="annealing steps per chain (default: 5000)",
    )
    anneal_parser.add_argument("--seed", type=int, default=0)
    anneal_parser.add_argument(
        "--temperature", type=float, default=2.0,
        help="initial temperature (default: 2.0)",
    )
    anneal_parser.add_argument(
        "--cooling", type=float, default=0.999,
        help="geometric cooling factor in (0, 1) (default: 0.999)",
    )

    gain_parser = subparsers.add_parser(
        "gain", help="expected locality gain for one machine configuration"
    )
    gain_parser.add_argument("--processors", type=float, required=True)
    gain_parser.add_argument("--contexts", type=float, default=1.0)
    gain_parser.add_argument(
        "--slowdown", type=float, default=1.0,
        help="network slowdown factor vs the base architecture",
    )

    subparsers.add_parser(
        "symbols", help="print the paper's Appendix A symbol -> API table"
    )

    report_parser = subparsers.add_parser(
        "report", help="write a full reproduction report (markdown)"
    )
    report_parser.add_argument(
        "--output", default="reproduction_report.md",
        help="output path (default: reproduction_report.md)",
    )
    report_parser.add_argument(
        "--full", action="store_true",
        help="full-length simulation windows (slower)",
    )
    return parser


def _command_list() -> int:
    for identifier in experiment_ids():
        print(identifier)
    return 0


def _command_run(
    identifier: str,
    quick: bool,
    verbose: bool = False,
    telemetry: bool = False,
) -> int:
    try:
        result = run_experiment(identifier, quick=quick, telemetry=telemetry)
    except Exception as exc:
        print(f"experiment {identifier} failed: {exc}", file=sys.stderr)
        if verbose:
            partial = getattr(exc, "partial_perf", None)
            if partial:
                print(render_perf_line(identifier, partial))
        return 1
    print(result.render())
    if verbose:
        print()
        print(result.render_perf())
    return 0


def _command_all(quick: bool, jobs: int = 1, verbose: bool = False) -> int:
    results = run_all(quick=quick, jobs=jobs)
    for result in results:
        print(result.render())
        print()
    if verbose:
        for result in results:
            print(result.render_perf())
    return 0


def _command_diagnose(identifier: str, quick: bool, threshold: float) -> int:
    from repro.obs.diagnostics import render_diagnosis

    obs.enable()
    try:
        perf_delta = run_experiment(identifier, quick=quick).perf
    except Exception as exc:
        # Still render whatever convergence records were collected; a
        # saturated/non-convergent solve raising is exactly the case the
        # diagnostics exist for.
        print(f"experiment {identifier} raised: {exc}", file=sys.stderr)
        perf_delta = getattr(exc, "partial_perf", None)
    print(
        render_diagnosis(
            obs.diagnostics(),
            identifier,
            utilization_threshold=threshold,
            perf_delta=perf_delta,
        )
    )
    return 0


def _command_anneal(args) -> int:
    from repro.experiments.locality_search import pattern_graph
    from repro.mapping.chains import anneal_chains
    from repro.mapping.strategies import random_mapping
    from repro.topology.torus import Torus

    try:
        torus = Torus(radix=args.radix, dimensions=args.dimensions)
        graph = pattern_graph(args.pattern, args.radix, args.dimensions)
        start = random_mapping(torus.node_count, seed=args.seed)
        search = anneal_chains(
            graph,
            torus,
            start,
            chains=args.chains,
            steps=args.steps,
            seed=args.seed,
            initial_temperature=args.temperature,
            cooling=args.cooling,
        )
    except ReproError as exc:
        print(f"anneal failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"{args.pattern} on the {torus.node_count}-node "
        f"radix-{args.radix} {args.dimensions}-D torus: "
        f"{args.chains} chains x {args.steps} steps"
    )
    for index, result in enumerate(search.results):
        marker = " <- best" if index == search.best_index else ""
        print(
            f"chain {index} (seed {search.seeds[index]}): "
            f"{result.initial_distance:.3f} -> {result.best_distance:.3f} "
            f"hops ({result.accepted_moves}/{result.attempted_moves} "
            f"moves accepted){marker}"
        )
    best = search.best
    print(
        f"best: {best.best_distance:.3f} hops "
        f"(chain {search.best_index}, "
        f"{100 * (1 - best.best_distance / best.initial_distance):.1f}% "
        "below the random start)"
    )
    return 0


def _command_gain(processors: float, contexts: float, slowdown: float) -> int:
    try:
        system = alewife_system(contexts=contexts).with_network_slowdown(slowdown)
        result = system.expected_gain(processors)
    except ReproError as exc:
        print(f"gain failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"N = {processors:g}, p = {contexts:g}, "
        f"network slowdown = {slowdown:g}x"
    )
    print(f"random-mapping distance : {result.random_distance:.2f} hops")
    print(f"expected locality gain  : {result.gain:.2f}x")
    return 0


def _command_report(output: str, full: bool) -> int:
    from repro.analysis.report import write_report

    path = write_report(output, quick=not full)
    print(f"report written to {path}")
    return 0


def _write_trace_outputs(args, experiments: List[str]) -> None:
    """Write trace + manifest artifacts for a traced run."""
    paths = obs.write_outputs(
        args.trace,
        experiments=experiments,
        parameters={
            "experiments": experiments,
            "quick": bool(getattr(args, "quick", False)),
            "jobs": int(getattr(args, "jobs", 1)),
            "command": args.command,
        },
    )
    print(f"trace written to {paths['trace']}")
    print(f"spans written to {paths['spans']}")
    print(f"manifest written to {paths['manifest']}")


def build_sim_parser() -> argparse.ArgumentParser:
    """The repro-sim argument parser (exposed for testing/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Cycle-level simulator front end (multi-seed replication)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    replicate = subparsers.add_parser(
        "replicate",
        help="run one machine configuration under several root seeds",
    )
    replicate.add_argument(
        "--radix", type=int, default=8, metavar="K",
        help="torus radix k (default: 8)",
    )
    replicate.add_argument(
        "--dimensions", type=int, default=2, metavar="N",
        help="torus dimensions n (default: 2)",
    )
    replicate.add_argument(
        "--contexts", type=int, default=2, metavar="P",
        help="hardware contexts per processor (default: 2)",
    )
    replicate.add_argument(
        "--switching", choices=("cut_through", "wormhole"),
        default="cut_through",
        help="switch architecture (default: cut_through)",
    )
    replicate.add_argument(
        "--mapping", choices=("identity", "random"), default="random",
        help="thread placement (default: random)",
    )
    replicate.add_argument(
        "--seeds", type=int, default=3, metavar="R",
        help="number of replications (default: 3)",
    )
    replicate.add_argument(
        "--root-seed", type=int, default=None, metavar="S",
        help="first replication seed (default: the config default, 1992)",
    )
    replicate.add_argument(
        "--jobs", type=_jobs, default=1, metavar="N",
        help="worker processes for serial-machine replications "
        "(wormhole, --telemetry; default: 1, in-process); cut-through "
        "seeds run as one compiled-core pass on threads",
    )
    replicate.add_argument(
        "--warmup", type=int, default=None, metavar="CYCLES",
        help="warmup window override, network cycles",
    )
    replicate.add_argument(
        "--measure", type=int, default=None, metavar="CYCLES",
        help="measurement window override, network cycles",
    )
    replicate.add_argument(
        "--json", metavar="FILE", default=None,
        help="write per-seed summaries and aggregates as JSON",
    )
    replicate.add_argument(
        "--trace", metavar="DIR", default=None,
        help="enable observability; write Chrome trace + manifest to DIR",
    )
    replicate.add_argument(
        "--telemetry", action="store_true",
        help="instrument every replication's fabric with per-channel "
        "telemetry and print the merged congestion summary",
    )
    replicate.add_argument(
        "--telemetry-epoch", type=int, default=256, metavar="L",
        help="telemetry sampling epoch, network cycles (default: 256)",
    )

    probe = subparsers.add_parser(
        "probe",
        help="drive one fabric workload under per-channel telemetry",
    )
    probe.add_argument(
        "--workload",
        choices=("uniform", "saturated", "hotspot50", "tree_saturation"),
        default="tree_saturation",
        help="injection pattern (default: tree_saturation)",
    )
    probe.add_argument(
        "--radix", type=int, default=8, metavar="K",
        help="torus radix k (default: 8)",
    )
    probe.add_argument(
        "--dimensions", type=int, default=2, metavar="N",
        help="torus dimensions n (default: 2)",
    )
    probe.add_argument(
        "--cycles", type=int, default=600, metavar="CYCLES",
        help="injection window, network cycles; the probe then ticks "
        "until the fabric drains (default: 600)",
    )
    probe.add_argument(
        "--epoch", type=int, default=64, metavar="L",
        help="telemetry sampling epoch, network cycles (default: 64)",
    )
    probe.add_argument(
        "--depth-threshold", type=int, default=8, metavar="D",
        help="queue depth at which a channel counts as saturated "
        "(default: 8)",
    )
    probe.add_argument("--seed", type=int, default=1992)
    probe.add_argument(
        "--output", metavar="DIR", default=None,
        help="write telemetry.jsonl, heatmap.txt, saturation.json, and a "
        "Chrome trace with per-epoch counter tracks to DIR",
    )
    return parser


def _command_replicate(args) -> int:
    import json

    from repro.mapping.strategies import identity_mapping, random_mapping
    from repro.sim.config import SimulationConfig
    from repro.sim.replicate import default_seeds, run_replications
    from repro.sim.telemetry import TelemetryConfig
    from repro.topology.graphs import torus_neighbor_graph
    from repro.workload.synthetic import build_programs

    try:
        config = SimulationConfig(
            radix=args.radix,
            dimensions=args.dimensions,
            contexts=args.contexts,
            switching=args.switching,
        )
        if args.root_seed is not None:
            config = config.with_seed(args.root_seed)
        graph = torus_neighbor_graph(args.radix, args.dimensions)
        programs = build_programs(
            graph, args.contexts, config.compute_cycles, config.compute_jitter
        )
        if args.mapping == "identity":
            mapping = identity_mapping(config.node_count)
        else:
            mapping = random_mapping(config.node_count, seed=config.seed)
        seeds = default_seeds(config.seed, args.seeds)
        telemetry = (
            TelemetryConfig(epoch_cycles=args.telemetry_epoch)
            if args.telemetry
            else None
        )
        result = run_replications(
            config,
            mapping,
            programs,
            seeds,
            jobs=args.jobs,
            warmup=args.warmup,
            measure=args.measure,
            telemetry=telemetry,
        )
    except ReproError as exc:
        print(f"replicate failed: {exc}", file=sys.stderr)
        return 1

    print(
        f"{config.node_count}-node radix-{config.radix} "
        f"{config.dimensions}-D torus ({config.switching}), "
        f"{args.contexts} contexts, {args.mapping} mapping: "
        f"{len(seeds)} seeds {list(seeds)}, jobs={args.jobs}"
    )
    width = max(len(name) for name in result.aggregates)
    for name, aggregate in result.aggregates.items():
        print(
            f"{name:<{width}}  {aggregate.mean:12.4f} "
            f"± {aggregate.ci95:.4f} (std {aggregate.std:.4f}, "
            f"n={aggregate.n})"
        )

    merged_telemetry = result.merged_telemetry() if args.telemetry else None
    if merged_telemetry is not None:
        from repro.sim.telemetry import TelemetrySummary, detect_saturation

        summary = TelemetrySummary(merged_telemetry)
        link_rho = list(summary.link_utilization().values())
        mean_rho = sum(link_rho) / len(link_rho) if link_rho else 0.0
        peak_rho = max(link_rho, default=0.0)
        print()
        print(
            f"telemetry ({summary.label}): {summary.delivered} worms, "
            f"{summary.epochs} epochs of {summary.epoch_cycles} cycles"
        )
        print(
            f"  link rho mean {mean_rho:.4f}, peak {peak_rho:.4f} "
            f"(hot factor {peak_rho / mean_rho if mean_rho else 0.0:.1f}x)"
        )
        mean_latency = summary.latency_mean()
        if mean_latency is not None:
            print(
                f"  worm latency mean {mean_latency:.1f}, "
                f"p50 <= {summary.latency_quantile(0.5):g}, "
                f"p95 <= {summary.latency_quantile(0.95):g} cycles"
            )
        report = detect_saturation(summary)
        if report.saturated:
            print(
                f"  tree saturation onset: cycle {report.onset_cycle} "
                f"(epoch {report.onset_epoch}), peak extent "
                f"{report.peak_extent} channels"
            )
        else:
            print(f"  {report.render()}")

    if args.json:
        payload = {
            "config": {
                "radix": config.radix,
                "dimensions": config.dimensions,
                "contexts": args.contexts,
                "switching": config.switching,
                "mapping": args.mapping,
                "warmup": args.warmup,
                "measure": args.measure,
            },
            "rng": result.rng,
            "seeds": list(result.seeds),
            "summaries": [s.as_dict() for s in result.summaries],
            "aggregates": {
                name: {
                    "mean": a.mean,
                    "std": a.std,
                    "ci95": a.ci95,
                    "n": a.n,
                    "values": list(a.values),
                }
                for name, a in result.aggregates.items()
            },
        }
        if merged_telemetry is not None:
            payload["telemetry"] = merged_telemetry
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"summaries written to {args.json}")

    if args.trace:
        if merged_telemetry is not None:
            from repro.sim.telemetry import emit_trace_counters

            emit_trace_counters(merged_telemetry)
        paths = obs.write_outputs(
            args.trace,
            experiments=["replicate"],
            parameters={
                "command": "replicate",
                "radix": config.radix,
                "dimensions": config.dimensions,
                "contexts": args.contexts,
                "switching": config.switching,
                "mapping": args.mapping,
                "jobs": args.jobs,
                "telemetry": (
                    telemetry.as_dict() if telemetry is not None else None
                ),
            },
            rng_seeds=result.rng,
        )
        print(f"trace written to {paths['trace']}")
        print(f"manifest written to {paths['manifest']}")
    return 0


def _command_probe(args) -> int:
    import json
    import os

    from repro.analysis.compare import ContentionComparison, contention_row
    from repro.analysis.linkmap import (
        link_utilization_from_telemetry,
        render_link_heatmap,
    )
    from repro.core.network import TorusNetworkModel
    from repro.sim.telemetry import (
        TelemetryConfig,
        emit_trace_counters,
        run_probe,
        write_telemetry_jsonl,
    )
    from repro.topology.torus import Torus

    try:
        config = TelemetryConfig(
            epoch_cycles=args.epoch, depth_threshold=args.depth_threshold
        )
        result = run_probe(
            args.workload,
            radix=args.radix,
            dimensions=args.dimensions,
            cycles=args.cycles,
            telemetry=config,
            seed=args.seed,
        )
    except ReproError as exc:
        print(f"probe failed: {exc}", file=sys.stderr)
        return 1

    summary = result.summary
    nodes = args.radix**args.dimensions
    print(
        f"{args.workload} probe on the {nodes}-node radix-{args.radix} "
        f"{args.dimensions}-D torus: "
        f"{result.injected} worms injected over {result.scheduled_cycles} "
        f"cycles, {result.delivered} delivered, drained at cycle "
        f"{result.total_cycles} ({summary.epochs} epochs of "
        f"{args.epoch} cycles)"
    )
    if result.message_rate and result.mean_hops and result.mean_flits:
        # Model-vs-measured contention at the probe's *measured*
        # operating point (delivered rate, mean hops, mean flits).
        network = TorusNetworkModel(
            dimensions=args.dimensions, message_size=result.mean_flits
        )
        comparison = ContentionComparison(
            rows=[
                contention_row(
                    args.workload,
                    network,
                    summary,
                    result.message_rate,
                    result.mean_hops,
                )
            ]
        )
        print()
        print(comparison.render())
    print()
    print(result.saturation.render())
    heatmap = None
    if args.dimensions <= 2:
        torus = Torus(radix=args.radix, dimensions=args.dimensions)
        heatmap = render_link_heatmap(
            link_utilization_from_telemetry(summary, torus), torus
        )
        print()
        print(heatmap)

    if args.output:
        os.makedirs(args.output, exist_ok=True)
        jsonl_path = write_telemetry_jsonl(
            result.snapshot, os.path.join(args.output, "telemetry.jsonl")
        )
        print()
        print(f"telemetry written to {jsonl_path}")
        saturation_path = os.path.join(args.output, "saturation.json")
        with open(saturation_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": args.workload,
                    "radix": args.radix,
                    "dimensions": args.dimensions,
                    "injected": result.injected,
                    "delivered": result.delivered,
                    "total_cycles": result.total_cycles,
                    "saturation": result.saturation.as_dict(),
                },
                handle,
                indent=2,
            )
        print(f"saturation report written to {saturation_path}")
        if heatmap is not None:
            heatmap_path = os.path.join(args.output, "heatmap.txt")
            with open(heatmap_path, "w", encoding="utf-8") as handle:
                handle.write(heatmap + "\n")
            print(f"heatmap written to {heatmap_path}")
        # Fold the per-epoch congestion series into a Chrome trace whose
        # counter tracks sit beside the manifest.
        obs.enable()
        emit_trace_counters(result.snapshot)
        paths = obs.write_outputs(
            args.output,
            experiments=[f"probe:{args.workload}"],
            parameters={
                "command": "probe",
                "workload": args.workload,
                "radix": args.radix,
                "dimensions": args.dimensions,
                "cycles": args.cycles,
                "seed": args.seed,
                "telemetry": config.as_dict(),
            },
            rng_seeds={"seed": args.seed},
        )
        print(f"trace written to {paths['trace']}")
        print(f"manifest written to {paths['manifest']}")
    return 0


def sim_main(argv: Optional[List[str]] = None) -> int:
    """``repro-sim`` entry point; returns a process exit code."""
    parser = build_sim_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trace", None):
        obs.enable()
    if args.command == "replicate":
        return _command_replicate(args)
    if args.command == "probe":
        return _command_probe(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trace", None):
        obs.enable()
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        if args.run_all:
            if args.telemetry:
                parser.error("--telemetry applies to a single experiment")
            code = _command_all(
                args.quick, jobs=args.jobs, verbose=args.verbose
            )
            if args.trace:
                _write_trace_outputs(args, experiment_ids())
            return code
        if args.experiment is None:
            parser.error("run requires an experiment id or --all")
        code = _command_run(
            args.experiment, args.quick, verbose=args.verbose,
            telemetry=args.telemetry,
        )
        if args.trace:
            _write_trace_outputs(args, [args.experiment])
        return code
    if args.command == "diagnose":
        return _command_diagnose(args.experiment, args.quick, args.threshold)
    if args.command == "anneal":
        return _command_anneal(args)
    if args.command == "gain":
        return _command_gain(args.processors, args.contexts, args.slowdown)
    if args.command == "report":
        return _command_report(args.output, args.full)
    if args.command == "symbols":
        from repro.nomenclature import describe

        print(describe())
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
