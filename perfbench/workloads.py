"""The benchmark's four workloads.

Each workload builds its inputs from the seed in :meth:`Workload.setup`
(timed apart, booked to ``setup_s``), then runs passes.  A pass is one
call of the public function a user would run: :meth:`Workload.prepare`
copies stateful inputs before the timer starts, :meth:`Workload.run` is
the timed call, and :meth:`Workload.check` verifies its output after
the timer stops.  Why each workload exists is in ``perfbench/README.md``.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.validation import run_validation
from repro.mapping import anneal as anneal_module
from repro.mapping import families
from repro.mapping.evaluate import average_distance
from repro.mapping.strategies import random_mapping
from repro.sim import batchcore
from repro.sim.batch import BatchMachine
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.sim.replicate import default_seeds, run_replications
from repro.topology.graphs import torus_neighbor_graph
from repro.topology.torus import Torus, distance_backend
from repro.workload.synthetic import build_programs

from tracing import Patcher

__all__ = ["WORKLOADS", "Workload", "PassResult", "MIN_FIT_R2"]

#: Lowest accepted R^2 of a fitted message curve (Eq 9 linearity).  The
#: paper-length windows (15k cycles) fit at R^2 >= 0.998; the short
#: windows here fit at about 0.95-0.99, so only a curve that has stopped
#: being a line falls below this.
MIN_FIT_R2 = 0.9


@dataclass
class PassResult:
    """One pass's output plus the figures the metrics are built from."""

    output: object
    #: Work done: simulated network cycles (x replications), or swaps.
    work: float
    #: Simulated result quality, identical on traced and untraced passes.
    quality: Dict[str, float] = field(default_factory=dict)
    #: Engines of the batch machines the pass ran (``replication_batch``).
    engines: List[str] = field(default_factory=list)
    #: Walls of the pass's parts, when the workload times them itself.
    parts: List[float] = field(default_factory=list)


def _summary_problems(summary, label: str, diameter: int) -> List[str]:
    """Invariants every measured window must satisfy.

    A summary carries no delivered-message count, and delivered <= sent
    would not hold per window anyway (messages in flight at the window
    edges), so the checks are ones no window can break: traffic exists,
    no message beats its own serialization or crosses more than the
    torus diameter, and utilizations are fractions.
    """
    if not summary.messages_sent:
        return [f"{label}: no messages sent"]
    problems = []
    if summary.mean_message_latency < summary.mean_message_flits:
        problems.append(
            f"{label}: mean latency {summary.mean_message_latency} below "
            f"mean size {summary.mean_message_flits} flits"
        )
    if not 0 < summary.mean_message_hops <= diameter:
        problems.append(f"{label}: mean hops {summary.mean_message_hops}")
    for name in ("channel_utilization", "idle_fraction"):
        value = getattr(summary, name)
        if value is not None and not 0.0 <= value <= 1.0:
            problems.append(f"{label}: {name} {value}")
    return problems


class Workload:
    name = ""
    #: What this workload's ``work_per_s`` counts, for the printed report.
    work_name = "sim_cycles_per_s"

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def prepare(self):
        """Per-pass input copy, made before the timer starts."""
        return None

    def run(self, prepared) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult) -> List[str]:
        """Problems found in one pass's output (empty when correct)."""
        raise NotImplementedError

    def run_checks(self) -> List[str]:
        """Once-per-run check made after the passes, outside any timing."""
        return []

    def provenance(self) -> Dict[str, str]:
        return {
            "batch_engine": "not used",
            "distance_backend": distance_backend(self.torus).kind,
        }

    def layer_shape(self) -> Dict[str, float]:
        """Per-pass sizes the layer ratios divide by."""
        return {}


class Validation(Workload):
    """Section 3.3 pipeline on the paper's radix-8 cut-through machine."""

    name = "validation"
    contexts = (1, 2, 4)
    warmup = 500
    measure = 2000

    def setup(self, seed: int) -> None:
        self.torus = Torus(radix=8, dimensions=2)
        # The paper's mapping suite is a fixed input; the seed drives the
        # simulated traffic.
        self.suite = families.paper_mapping_suite(self.torus)
        self.configs = [
            SimulationConfig(
                radix=8,
                contexts=contexts,
                compute_cycles=8,
                warmup_network_cycles=self.warmup,
                measure_network_cycles=self.measure,
                seed=seed,
            )
            for contexts in self.contexts
        ]

    def _cycles(self) -> int:
        return len(self.suite) * len(self.configs) * (self.warmup + self.measure)

    def run(self, prepared) -> PassResult:
        # A pass takes seconds, long enough to soak up a shared host's
        # interference wherever it runs.  Its parts are short: each
        # simulation (Machine.run, one per context count and mapping, in
        # the same order every pass), plus the rest of the pipeline.
        parts = []
        run = Machine.run

        def timed(machine, *args, **kwargs):
            start = time.perf_counter()
            try:
                return run(machine, *args, **kwargs)
            finally:
                parts.append(time.perf_counter() - start)

        patcher = Patcher()
        patcher.method(Machine, "run", timed)
        start = time.perf_counter()
        try:
            reports = [run_validation(config, self.suite) for config in self.configs]
        finally:
            patcher.restore()
        parts.append(time.perf_counter() - start - sum(parts))
        error = sum(r.mean_rate_error for r in reports) / len(reports)
        return PassResult(
            reports, self._cycles(), {"model_rate_error": error}, parts=parts
        )

    def check(self, result: PassResult) -> List[str]:
        problems = []
        diameter = self.torus.diameter()
        for report in result.output:
            label = f"contexts={report.contexts}"
            r2 = report.curve.fit.r_squared
            if not r2 >= MIN_FIT_R2:
                problems.append(f"{label}: message-curve R^2 {r2:.4f} < {MIN_FIT_R2}")
            if len(report.rows) != len(self.suite):
                problems.append(
                    f"{label}: {len(report.rows)} rows for {len(self.suite)} mappings"
                )
            for row in report.rows:
                problems += _summary_problems(
                    row.simulated, f"{label} {row.name}", diameter
                )
                if not math.isfinite(row.rate_error):
                    problems.append(f"{label} {row.name}: rate error {row.rate_error}")
        return problems

    def layer_shape(self) -> Dict[str, float]:
        cycles = self._cycles()
        speedup = self.configs[0].network_speedup
        return {"nodes": self.torus.node_count, "cycles": cycles, "ticks": cycles // speedup}


class LightScaling(Workload):
    """One light-traffic Machine.run on a radix-32 2-D torus (1024 nodes)."""

    name = "light_scaling"
    warmup = 500
    measure = 2500

    def setup(self, seed: int) -> None:
        self.config = SimulationConfig(
            radix=32,
            contexts=1,
            compute_cycles=1000,
            warmup_network_cycles=self.warmup,
            measure_network_cycles=self.measure,
            seed=seed,
        )
        self.torus = Torus(radix=32, dimensions=2)
        graph = torus_neighbor_graph(32, 2)
        self.programs = build_programs(
            graph, 1, self.config.compute_cycles, self.config.compute_jitter
        )
        # scaling-sim's mapping (seeded by the radix), so pass cost does not
        # depend on which random placement the seed drew.
        self.mapping = random_mapping(self.torus.node_count, seed=32)
        self._reference = None

    def prepare(self):
        # Programs carry run state, so every pass starts from a fresh copy.
        return copy.deepcopy(self.programs)

    def run(self, prepared) -> PassResult:
        summary = Machine(self.config, self.mapping, prepared).run()
        return PassResult(summary, self.warmup + self.measure)

    def check(self, result: PassResult) -> List[str]:
        summary = result.output
        problems = _summary_problems(summary, self.name, self.torus.diameter())
        current = summary.as_dict()
        if self._reference is None:
            self._reference = current
        elif current != self._reference:
            problems.append("same-seed passes gave different summaries")
        return problems

    def layer_shape(self) -> Dict[str, float]:
        cycles = self.warmup + self.measure
        return {
            "nodes": self.torus.node_count,
            "cycles": cycles,
            "ticks": cycles // self.config.network_speedup,
        }


class ReplicationBatch(Workload):
    """run_replications(batch=8) on the radix-8, two-context scaling-sim point."""

    name = "replication_batch"
    replications = 8
    warmup = 500
    measure = 2000

    def setup(self, seed: int) -> None:
        self.config = SimulationConfig(
            radix=8,
            contexts=2,
            warmup_network_cycles=self.warmup,
            measure_network_cycles=self.measure,
            seed=seed,
        )
        self.torus = Torus(radix=8, dimensions=2)
        graph = torus_neighbor_graph(8, 2)
        self.programs = build_programs(
            graph, 2, self.config.compute_cycles, self.config.compute_jitter
        )
        self.mapping = random_mapping(self.torus.node_count, seed=8)
        self.seeds = default_seeds(seed, self.replications)
        # Builds (or finds in its cache) and loads the compiled core.
        batchcore.load()
        self.engines = set()
        self._last = None

    def run(self, prepared) -> PassResult:
        # Record the engine each batch machine of this pass selected.
        engines = []
        run = BatchMachine.run

        def observed(machine, *args, **kwargs):
            engines.append(machine.engine)
            return run(machine, *args, **kwargs)

        patcher = Patcher()
        patcher.method(BatchMachine, "run", observed)
        try:
            result = run_replications(
                self.config,
                self.mapping,
                self.programs,
                seeds=self.seeds,
                batch=self.replications,
            )
        finally:
            patcher.restore()
        work = self.replications * (self.warmup + self.measure)
        return PassResult(result, work, engines=engines)

    def check(self, result: PassResult) -> List[str]:
        problems = []
        self.engines.update(result.engines)
        # A pass on the pure-Python fallback did not measure the core.
        if result.engines != ["c"]:
            problems.append(
                f"batch machines ran on engines {result.engines}, not once on "
                "the compiled core"
            )
        summaries = result.output.summaries
        if len(summaries) != self.replications:
            problems.append(f"{len(summaries)} summaries for {self.replications} seeds")
        diameter = self.torus.diameter()
        for seed, summary in zip(self.seeds, summaries):
            problems += _summary_problems(summary, f"seed {seed}", diameter)
        self._last = summaries
        return problems

    def run_checks(self) -> List[str]:
        """The last batched seed must equal a serial machine run exactly."""
        if self._last is None:
            return ["no batched pass completed"]
        seed = self.seeds[-1]
        serial = Machine(
            self.config.with_seed(seed), self.mapping, copy.deepcopy(self.programs)
        ).run()
        if self._last[-1].as_dict() != serial.as_dict():
            return [f"seed {seed}: batched summary differs from the serial machine"]
        return []

    def provenance(self) -> Dict[str, str]:
        engine = "/".join(sorted(self.engines)) or "none ran"
        return {**super().provenance(), "batch_engine": engine}

    def layer_shape(self) -> Dict[str, float]:
        cycles = self.warmup + self.measure
        return {
            "nodes": self.torus.node_count * self.replications,
            "cycles": cycles,
            "ticks": cycles // self.config.network_speedup,
            "replications": self.replications,
        }


class AnnealLarge(Workload):
    """anneal_mapping on a 316 x 316 torus (~10^5 nodes) from a random mapping."""

    name = "anneal_large"
    work_name = "swaps_per_s"
    radix = 316
    steps = 2000

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.torus = Torus(radix=self.radix, dimensions=2)
        self.graph = torus_neighbor_graph(self.radix, 2)
        self.initial = random_mapping(self.torus.node_count, seed)

    def run(self, prepared) -> PassResult:
        result = anneal_module.anneal_mapping(
            self.graph, self.torus, self.initial, steps=self.steps, seed=self.seed
        )
        return PassResult(
            result,
            result.attempted_moves,
            {
                "anneal_distance": result.best_distance,
                "accepted": result.accepted_moves,
                "attempted": result.attempted_moves,
            },
        )

    def check(self, result: PassResult) -> List[str]:
        outcome = result.output
        problems = []
        if not outcome.mapping.is_bijective:
            problems.append("annealed mapping is not a bijection")
        recomputed = average_distance(self.graph, outcome.mapping, self.torus)
        if recomputed != outcome.best_distance:
            problems.append(
                f"recomputed distance {recomputed!r} != best_distance "
                f"{outcome.best_distance!r}"
            )
        return problems


WORKLOADS = {
    workload.name: workload
    for workload in (Validation, LightScaling, ReplicationBatch, AnnealLarge)
}
