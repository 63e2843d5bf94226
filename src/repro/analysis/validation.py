"""Model-vs-simulation validation (the Section 3.3 experiments).

The paper validates the combined model by simulating the synthetic
application on a 64-node machine under nine thread-to-processor mappings
(average communication distances from 1 to just over 6 hops) with one,
two, and four hardware contexts, then comparing measured per-node message
rates (Figure 4) and message latencies (Figure 5) against the model
solved at the same distances.

:func:`run_validation` reproduces that pipeline end to end:

1. build the mapping suite and simulate each mapping;
2. fit the measured application message curve (slope = measured ``s``);
3. solve the combined model (with the node-channel extension, as the
   paper does for Section 3) at each mapping's distance;
4. report per-point and aggregate prediction errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.fitting import MessageCurveFit, fit_message_curve
from repro.core.combined import OperatingPoint, solve
from repro.core.network import TorusNetworkModel
from repro.errors import ParameterError
from repro.mapping.families import NamedMapping, paper_mapping_suite
from repro.sim.batch import run_batches
from repro.sim.config import SimulationConfig
from repro.sim.stats import MeasurementSummary
from repro.topology.graphs import torus_neighbor_graph
from repro.topology.torus import Torus
from repro.workload.synthetic import build_programs

__all__ = [
    "SimulatedPoint",
    "ValidationRow",
    "ValidationReport",
    "simulate_mapping_suite",
    "run_validation",
]


@dataclass(frozen=True)
class SimulatedPoint:
    """One simulation run: a mapping and its measured summary."""

    name: str
    distance: float
    summary: MeasurementSummary


@dataclass(frozen=True)
class ValidationRow:
    """Model-vs-simulation comparison at one communication distance."""

    name: str
    distance: float
    simulated: MeasurementSummary
    predicted: OperatingPoint

    @property
    def rate_error(self) -> float:
        """Relative message-rate prediction error (signed)."""
        return (
            self.predicted.message_rate - self.simulated.message_rate
        ) / self.simulated.message_rate

    @property
    def latency_error_cycles(self) -> float:
        """Message-latency prediction error in network cycles (signed)."""
        return (
            self.predicted.message_latency - self.simulated.mean_message_latency
        )


@dataclass(frozen=True)
class ValidationReport:
    """All rows for one context count, plus the fitted curve."""

    contexts: int
    curve: MessageCurveFit
    message_size: float
    rows: List[ValidationRow]

    @property
    def max_rate_error(self) -> float:
        return max(abs(r.rate_error) for r in self.rows)

    @property
    def mean_rate_error(self) -> float:
        return sum(abs(r.rate_error) for r in self.rows) / len(self.rows)

    @property
    def max_latency_error_cycles(self) -> float:
        return max(abs(r.latency_error_cycles) for r in self.rows)


def simulate_mapping_suite(
    config: SimulationConfig,
    mappings: Optional[Sequence[NamedMapping]] = None,
) -> List[SimulatedPoint]:
    """Simulate the synthetic application under each mapping.

    Each mapping runs as one ``config.seed`` replication through
    :func:`~repro.sim.batch.run_batches`: the compiled core for
    cut-through machines without telemetry, its machines advancing in
    parallel, serial machines otherwise.  Either way the summary is
    bit-identical to ``Machine(config, mapping, programs).run()``.
    """
    torus = Torus(radix=config.radix, dimensions=config.dimensions)
    if mappings is None:
        mappings = paper_mapping_suite(torus)
    graph = torus_neighbor_graph(config.radix, config.dimensions)
    # run_batches never mutates the (stateful) programs, so one pristine
    # set serves every mapping.
    programs = build_programs(
        graph, config.contexts, config.compute_cycles, config.compute_jitter
    )
    summaries = run_batches(
        config, [named.mapping for named in mappings], programs, [config.seed]
    )
    return [
        SimulatedPoint(name=named.name, distance=named.distance, summary=runs[0])
        for named, runs in zip(mappings, summaries)
    ]


def run_validation(
    config: SimulationConfig,
    mappings: Optional[Sequence[NamedMapping]] = None,
) -> ValidationReport:
    """Full Section 3.3 pipeline for one context count."""
    points = simulate_mapping_suite(config, mappings)
    if len(points) < 2:
        raise ParameterError("validation needs at least two mappings")
    curve = fit_message_curve(
        [
            (p.summary.mean_message_interval, p.summary.mean_message_latency)
            for p in points
        ],
        contexts=config.contexts,
    )
    message_size = sum(
        p.summary.mean_message_flits for p in points
    ) / len(points)
    second_moment = sum(
        p.summary.mean_message_flits_squared for p in points
    ) / len(points)
    mean_g = sum(
        p.summary.messages_per_transaction for p in points
    ) / len(points)
    network = TorusNetworkModel(
        dimensions=config.dimensions,
        message_size=message_size,
        node_channel_contention=True,
        # The protocol's sizes are bimodal (control vs data); feeding
        # the measured second moment makes the node-channel term
        # M/G/1 rather than mean-size M/D/1.
        message_size_second_moment=max(second_moment, message_size**2),
    )
    node = curve.to_node_model(messages_per_transaction=mean_g)
    rows = [
        ValidationRow(
            name=p.name,
            distance=p.distance,
            simulated=p.summary,
            predicted=solve(node, network, p.distance),
        )
        for p in points
    ]
    return ValidationReport(
        contexts=config.contexts,
        curve=curve,
        message_size=message_size,
        rows=rows,
    )
