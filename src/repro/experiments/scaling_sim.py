"""Empirical machine-size scaling: the Figure 6 trend, simulated.

Figure 6 is an analytical sweep; this experiment checks its premise in
the cycle-level simulator: growing machines (radix 4 → 12) running the
synthetic application under *random* mappings show monotonically rising
communication distance, channel utilization, and per-hop latency — the
approach toward Eq 16's bound that makes latency asymptotically linear
in distance.  Simulating a million nodes is out of reach; the point here
is the *trend* at the scales a workstation can simulate, matching the
model's predictions at the same distances.

Each point is replicated under several root seeds
(:func:`repro.sim.replicate.run_replications`); the tabulated point
estimates come from the *first* seed — exactly the old single-seed run,
so nothing shifts — and the 95% confidence half-widths ride alongside in
the data series and the table's ± column.

With ``telemetry=True`` every replication's fabric runs instrumented
(:mod:`repro.sim.telemetry`) and a second table compares the model's
contention inputs — Eq 10's channel utilization evaluated at each
point's *measured* rate and distance — against the telemetry's per-link
busy counters (mean and peak), isolating the contention equations from
workload-prediction error.
"""

from __future__ import annotations

from repro.analysis.compare import ContentionComparison, contention_row
from repro.analysis.tables import render_table
from repro.core.combined import solve
from repro.core.limits import limiting_per_hop_latency
from repro.core.network import TorusNetworkModel
from repro.experiments.result import ExperimentResult
from repro.experiments.validation_data import validation_report
from repro.mapping.strategies import random_mapping
from repro.sim.config import SimulationConfig
from repro.sim.replicate import default_seeds, run_replications
from repro.sim.telemetry import TelemetryConfig
from repro.topology.graphs import torus_neighbor_graph
from repro.workload.synthetic import build_programs

__all__ = ["run"]

CONTEXTS = 2


def run(
    quick: bool = False,
    telemetry: bool = False,
    radices=None,
) -> ExperimentResult:
    """Sweep machine radix; measure d, rho, T_m; compare to the model.

    The application message curve is a property of the application,
    processor, and protocol — not of the machine size — so the node
    model fitted on the 64-node validation suite applies unchanged at
    every radix here.  ``telemetry`` instruments every replication's
    fabric and appends the model-vs-measured contention table.
    ``radices`` overrides the swept radix tuple; radix-32 and radix-64
    2-D tori (1,024/4,096 nodes) are practical sweep points — the CI
    smoke runs ``radices=(32,)`` and checks that no simulation of it ran
    as a serial machine.  Each point's replications run as one
    :func:`~repro.sim.replicate.run_replications` call — one pass of
    the compiled core, which holds any torus below 2**20 nodes — with
    per-seed summaries bit-identical to one machine per seed.
    """
    if radices is None:
        radices = (4, 8) if quick else (4, 6, 8, 12)
    windows = dict(
        warmup_network_cycles=1500 if quick else 3000,
        measure_network_cycles=6000 if quick else 12000,
    )
    report = validation_report(CONTEXTS, quick)
    node = report.curve.to_node_model(messages_per_transaction=3.2)
    network = TorusNetworkModel(
        dimensions=2, message_size=report.message_size,
        node_channel_contention=True,
    )
    limit = limiting_per_hop_latency(
        node.sensitivity, network.message_size, network.dimensions
    )

    replications = 2 if quick else 3
    telemetry_config = TelemetryConfig() if telemetry else None
    contention_rows = []
    rows = []
    series = {
        "nodes": [], "distance": [], "rho": [],
        "t_m_sim": [], "t_m_model": [],
        "t_m_sim_ci95": [], "rho_ci95": [], "distance_ci95": [],
        "replications": replications,
    }
    for radix in radices:
        config = SimulationConfig(radix=radix, contexts=CONTEXTS, **windows)
        graph = torus_neighbor_graph(radix, 2)
        programs = build_programs(
            graph, CONTEXTS, config.compute_cycles, config.compute_jitter
        )
        mapping = random_mapping(config.node_count, seed=radix)
        result = run_replications(
            config, mapping, programs,
            seeds=default_seeds(config.seed, replications),
            telemetry=telemetry_config,
        )
        # Point estimates come from the first seed (the old single-seed
        # run); the replications contribute only the spread.
        summary = result.summaries[0]
        model_point = solve(node, network, summary.mean_message_hops)
        if telemetry_config is not None:
            # Contention check at the measured operating point: the
            # merged telemetry covers all replications, so measured rho
            # is the cross-seed mean and peak the cross-seed peak.
            contention_rows.append(
                contention_row(
                    f"{config.node_count}n radix-{radix}",
                    network,
                    result.merged_telemetry(),
                    summary.message_rate,
                    summary.mean_message_hops,
                )
            )
        series["nodes"].append(config.node_count)
        series["distance"].append(summary.mean_message_hops)
        series["rho"].append(summary.channel_utilization)
        series["t_m_sim"].append(summary.mean_message_latency)
        series["t_m_model"].append(model_point.message_latency)
        series["t_m_sim_ci95"].append(result.ci95("mean_message_latency"))
        series["rho_ci95"].append(result.ci95("channel_utilization"))
        series["distance_ci95"].append(result.ci95("mean_message_hops"))
        rows.append(
            (
                config.node_count,
                round(summary.mean_message_hops, 2),
                round(summary.channel_utilization, 3),
                round(summary.mean_message_latency, 1),
                round(result.ci95("mean_message_latency"), 1),
                round(model_point.message_latency, 1),
                round(summary.mean_per_hop_latency, 2),
            )
        )

    table = render_table(
        [
            "N",
            "d measured",
            "rho measured",
            "T_m sim",
            "T_m ±95%",
            "T_m model",
            "T_h sim (approx)",
        ],
        rows,
        title=(
            "Random-mapping scaling, simulated "
            f"(two contexts, {replications} seeds; "
            f"Eq 16 limit = {limit:.1f} network cycles)"
        ),
    )

    tables = [table]
    notes = [
        "Distance, utilization, and message latency all rise with "
        "machine size under random mappings — the simulated onset of "
        "the Figure 6 approach to the Eq 16 bound.",
        "The measured per-hop column is an upper-ish estimate: it "
        "attributes ejection-side and destination-controller "
        "queueing to the hops, which the model books under the "
        "node-channel term instead.",
    ]
    if contention_rows:
        comparison = ContentionComparison(rows=contention_rows)
        tables.append(comparison.render())
        notes.append(
            "The contention table evaluates Eq 10/11 at each point's "
            "measured rate and distance against the fabric telemetry's "
            "per-link busy counters; the peak column shows the hot-link "
            "spread a single-rho model cannot express."
        )
    return ExperimentResult(
        experiment="scaling-sim",
        title="Machine-size scaling measured on the simulator",
        tables=tables,
        notes=notes,
        data=series,
    )
