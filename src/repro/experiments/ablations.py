"""Ablation experiments for the design choices DESIGN.md calls out.

Each ablation isolates one modeling decision:

* **feedback** — the paper's central departure from Agarwal [1]: close
  the application/network loop or hold injection rates fixed;
* **clamp** — the ``T_h = 1`` rule for ``k_d < 1`` (highly local
  mappings);
* **node-channel** — the processor<->network channel contention
  extension at the validated 64-node scale;
* **dimension** — Section 4.2's remark that higher-dimensional networks
  shrink locality gains;
* **buffering** — simulator-side: buffered cut-through switches vs pure
  single-flit wormhole (why the validation runs default to the former).
"""

from __future__ import annotations

from repro.analysis.fitting import fit_message_curve
from repro.analysis.tables import render_table
from repro.core.combined import open_loop, solve
from repro.core.network import TorusNetworkModel
from repro.errors import SaturationError
from repro.experiments.alewife import alewife_system, alewife_validation_system
from repro.experiments.result import ExperimentResult
from repro.mapping.families import paper_mapping_suite
from repro.mapping.strategies import identity_mapping, random_mapping
from repro.sim.batch import run_batch
from repro.sim.config import SimulationConfig
from repro.topology.graphs import torus_neighbor_graph
from repro.topology.torus import Torus
from repro.workload.generators import uniform_random_graph_programs
from repro.workload.synthetic import build_programs

__all__ = [
    "run_feedback",
    "run_clamp",
    "run_node_channel",
    "run_dimension",
    "run_buffering",
    "run_uniformity",
]


def run_feedback(quick: bool = False) -> ExperimentResult:
    """Closed-loop vs open-loop network evaluation as distance grows."""
    system = alewife_system(contexts=2)
    node, network = system.node, system.network
    anchor = solve(node, network, 4.0)
    fixed_rate = anchor.message_rate

    rows = []
    for distance in (4.0, 8.0, 16.0, 32.0, 64.0, 128.0):
        closed = solve(node, network, distance)
        try:
            open_latency = round(open_loop(network, fixed_rate, distance), 1)
        except SaturationError:
            open_latency = "saturated"
        rows.append(
            (
                distance,
                round(closed.message_latency, 1),
                round(closed.utilization, 3),
                open_latency,
            )
        )
    table = render_table(
        ["d (hops)", "closed-loop T_m", "closed-loop rho", "open-loop T_m"],
        rows,
        title=(
            "Feedback ablation: open loop holds the d=4 injection rate "
            f"({fixed_rate:.4f} msg/cycle) at every distance"
        ),
    )
    return ExperimentResult(
        experiment="ablation-feedback",
        title="Application/network feedback vs fixed injection rates",
        tables=[table],
        notes=[
            "Open-loop latency diverges once the fixed rate exceeds "
            "saturation; the closed loop backs off and stays finite at "
            "every distance — the paper's core correction to Agarwal's "
            "fixed-rate analysis.",
        ],
        data={"fixed_rate": fixed_rate},
    )


def run_clamp(quick: bool = False) -> ExperimentResult:
    """Effect of the k_d < 1 clamp on highly local mappings."""
    system = alewife_system(contexts=2)
    node = system.node
    clamped = system.network
    unclamped = clamped.without_extensions()

    rows = []
    for distance in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
        with_clamp = solve(node, clamped, distance)
        without = solve(node, unclamped, distance)
        rows.append(
            (
                distance,
                round(distance / 2, 2),
                round(with_clamp.per_hop_latency, 2),
                round(without.per_hop_latency, 2),
                round(with_clamp.message_latency, 1),
                round(without.message_latency, 1),
            )
        )
    table = render_table(
        ["d", "k_d", "T_h clamped", "T_h base", "T_m clamped", "T_m base"],
        rows,
        title="Local-traffic clamp ablation (differences appear for k_d < 1)",
    )
    return ExperimentResult(
        experiment="ablation-clamp",
        title="The T_h = 1 clamp for k_d < 1",
        tables=[table],
        notes=[
            "Below k_d = 1 the unclamped Eq 14 geometry term is negative "
            "(meaningless); the clamp pins T_h at the single-cycle switch "
            "delay, as the paper prescribes for well-mapped applications.",
        ],
        data={},
    )


def run_node_channel(quick: bool = False) -> ExperimentResult:
    """Node-channel contention extension at the 64-node validation scale."""
    with_extension = alewife_validation_system(contexts=2)
    without = alewife_system(contexts=2)

    rows = []
    for distance in (1.0, 2.0, 4.06, 6.0):
        ext = with_extension.operating_point(distance)
        base = without.operating_point(distance)
        rows.append(
            (
                distance,
                round(ext.message_latency, 1),
                round(base.message_latency, 1),
                round(ext.node_channel_delay, 1),
            )
        )
    table = render_table(
        ["d (hops)", "T_m with extension", "T_m without", "node-channel delay"],
        rows,
        title="Node-channel contention at 64 nodes (paper: adds 2-5 cycles)",
    )
    return ExperimentResult(
        experiment="ablation-node-channel",
        title="Processor-network channel contention extension",
        tables=[table],
        notes=[
            "The M/D/1 injection/ejection term contributes a few network "
            "cycles at validation-scale loads, matching Section 2.4's "
            "reported magnitude.",
        ],
        data={},
    )


def run_dimension(quick: bool = False) -> ExperimentResult:
    """Section 4.2: higher network dimension lowers locality gains."""
    rows = []
    for dimensions in (2, 3, 4):
        system = alewife_system(contexts=1, dimensions=dimensions)
        rows.append(
            (
                dimensions,
                round(system.expected_gain(4096).random_distance, 1),
                round(system.expected_gain(4096).gain, 2),
                round(system.expected_gain(1e6).gain, 1),
            )
        )
    table = render_table(
        ["n", "d random @ 4096", "gain @ 4096", "gain @ 10^6"],
        rows,
        title="Network dimension vs locality gain (p = 1)",
    )
    return ExperimentResult(
        experiment="ablation-dimension",
        title="Impact of network dimensionality",
        tables=[table],
        notes=[
            "Higher n shortens random-mapping distances (Eq 17) and "
            "lowers the per-hop limit (Eq 16), shrinking what locality "
            "exploitation can save — the paper's closing observation of "
            "Section 4.2.",
        ],
        data={},
    )


def run_buffering(quick: bool = False) -> ExperimentResult:
    """Simulator switch buffering: cut-through vs rigid-worm wormhole."""
    torus = Torus(radix=8, dimensions=2)
    suite = paper_mapping_suite(torus, adversarial_steps=1500 if quick else 4000)
    picks = [suite[0], suite[len(suite) // 2], suite[-1]]
    graph = torus_neighbor_graph(8, 2)
    windows = dict(
        warmup_network_cycles=1000 if quick else 2000,
        measure_network_cycles=4000 if quick else 8000,
    )

    configs = [
        SimulationConfig(contexts=2, switching=switching, **windows)
        for switching in ("cut_through", "wormhole")
    ]
    # run_batch deep-copies the programs per run, so one set serves all.
    programs = build_programs(
        graph, 2, configs[0].compute_cycles, configs[0].compute_jitter
    )

    rows = []
    for named in picks:
        results = {}
        for config in configs:
            # Cut-through runs on the compiled core; run_batch runs the
            # wormhole fabric as a serial machine.
            (results[config.switching],) = run_batch(
                config, named.mapping, programs, [config.seed]
            )
        rows.append(
            (
                named.name,
                round(named.distance, 2),
                round(results["cut_through"].mean_message_latency, 1),
                round(results["wormhole"].mean_message_latency, 1),
                round(
                    results["wormhole"].mean_message_latency
                    / results["cut_through"].mean_message_latency,
                    2,
                ),
            )
        )
    table = render_table(
        ["mapping", "d", "T_m cut-through", "T_m wormhole", "ratio"],
        rows,
        title="Switch-buffering ablation (simulated, p = 2)",
    )
    return ExperimentResult(
        experiment="ablation-buffering",
        title="Buffered cut-through vs single-flit wormhole switches",
        tables=[table],
        notes=[
            "Single-flit wormhole amplifies contention through blocking "
            "trees; the Alewife switches' 'moderate buffering' motivates "
            "the cut-through default used for the validation runs.",
        ],
        data={"rows": rows},
    )


def run_uniformity(quick: bool = False) -> ExperimentResult:
    """Model error: uniform random traffic vs permutation traffic.

    The Agarwal network model assumes traffic is spread uniformly over
    the machine.  The validation suite's high-distance mappings are
    deterministic permutations of the torus-neighbor graph, which
    concentrate load on specific links — this ablation quantifies how
    much of the model's residual error that non-uniformity explains, by
    simulating both a *uniform random* workload and the *permuted
    neighbor* workload at matched average distances and comparing each
    against the model's prediction.
    """
    torus = Torus(radix=8, dimensions=2)
    graph = torus_neighbor_graph(8, 2)
    windows = dict(
        warmup_network_cycles=1500 if quick else 3000,
        measure_network_cycles=5000 if quick else 12000,
    )
    config = SimulationConfig(contexts=2, **windows)

    # Uniform traffic: distance is the Eq 17 expectation regardless of
    # mapping; permutation traffic: use a random mapping of the neighbor
    # graph, which lands at a similar mean distance (~4 hops).
    uniform_programs = uniform_random_graph_programs(
        graph, config.contexts, config.compute_cycles, config.compute_jitter
    )
    (uniform_summary,) = run_batch(
        config, identity_mapping(64), uniform_programs, [config.seed]
    )

    permuted_mapping = random_mapping(64, seed=11)
    neighbor_programs = build_programs(
        graph, config.contexts, config.compute_cycles, config.compute_jitter
    )
    (permuted_summary,) = run_batch(
        config, permuted_mapping, neighbor_programs, [config.seed]
    )

    # Model each run with a node curve fitted from two anchor points
    # (ideal-mapping run + the run itself), matching the validation
    # pipeline's procedure in miniature.
    (ideal_summary,) = run_batch(
        config, identity_mapping(64), neighbor_programs, [config.seed]
    )

    rows = []
    data = {}
    for label, summary in (
        ("uniform random", uniform_summary),
        ("permuted neighbor", permuted_summary),
    ):
        curve = fit_message_curve(
            [
                (
                    ideal_summary.mean_message_interval,
                    ideal_summary.mean_message_latency,
                ),
                (summary.mean_message_interval, summary.mean_message_latency),
            ],
            contexts=config.contexts,
        )
        network = TorusNetworkModel(
            dimensions=2,
            message_size=summary.mean_message_flits,
            node_channel_contention=True,
        )
        node = curve.to_node_model(
            messages_per_transaction=summary.messages_per_transaction
        )
        predicted = solve(node, network, summary.mean_message_hops)
        error = (
            predicted.message_rate - summary.message_rate
        ) / summary.message_rate
        data[label] = error
        rows.append(
            (
                label,
                round(summary.mean_message_hops, 2),
                round(summary.message_rate * 1000, 2),
                round(predicted.message_rate * 1000, 2),
                f"{error * 100:+.1f}%",
            )
        )

    table = render_table(
        ["workload", "d (hops)", "sim r_m (msg/kcyc)", "model r_m", "error"],
        rows,
        title="Model error vs traffic uniformity (p = 2, matched distance)",
    )
    return ExperimentResult(
        experiment="ablation-uniformity",
        title="Uniform vs permutation traffic against the uniform-traffic model",
        tables=[table],
        notes=[
            "At this moderate load the two workloads are modeled about "
            "equally well; the permutation penalty grows with load and "
            "distance, which is the residual error source at the Figure "
            "4/5 validation extremes (p = 4, adversarial mappings) — see "
            "EXPERIMENTS.md.",
        ],
        data=data,
    )
