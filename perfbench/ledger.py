"""The layer ledger: which public calls the traced run wraps, and the
per-layer metrics built from their spans.

Layers are ``repro`` modules.  Each is traced at the public method or
function that enters it, from outside the package; the compiled batch
core is traced through a proxy of the ``lib`` object that
``repro.sim.batchcore.load()`` returns.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis import fitting
from repro.core import combined
from repro.mapping import anneal, families
from repro.mapping.engine import SwapEngine
from repro.sim import batchcore
from repro.sim.batch import BatchMachine
from repro.sim.coherence import CoherenceController
from repro.sim.cut_through import CutThroughFabric
from repro.sim.engine import MachineEngine
from repro.sim.machine import Machine
from repro.sim.processor import Processor
from repro.topology.torus import DeltaBackend

from measure import median
from tracing import CoreLibProxy, Patcher, SpanRecorder

__all__ = ["install", "layer_metrics"]

METHODS = (
    ("processor.tick", Processor, "tick"),
    ("processor.skip_ticks", Processor, "skip_ticks"),
    ("coherence.tick", CoherenceController, "tick"),
    ("coherence.deliver", CoherenceController, "deliver"),
    ("fabric.tick", CutThroughFabric, "tick"),
    ("fabric.inject", CutThroughFabric, "inject"),
    ("engine.run_window", MachineEngine, "run_window"),
    ("machine.init", Machine, "__init__"),
    ("batch.init", BatchMachine, "__init__"),
    ("batch.run", BatchMachine, "run"),
    ("swap.delta", SwapEngine, "swap_delta"),
    ("distance.pairwise", DeltaBackend, "pairwise"),
)

FUNCTIONS = (
    ("anneal.run", anneal, "anneal_mapping"),
    ("suite.build", families, "paper_mapping_suite"),
    ("solver.solve", combined, "solve"),
    ("fit.message_curve", fitting, "fit_message_curve"),
)


def install(recorder: SpanRecorder) -> Patcher:
    """Wrap every traced call; undo with the returned patcher's ``restore``."""
    patcher = Patcher()
    for name, cls, attr in METHODS:
        patcher.method(cls, attr, recorder.wrap(name, cls.__dict__[attr]))
    for name, module, attr in FUNCTIONS:
        original = getattr(module, attr)
        patcher.function(original, recorder.wrap(name, original))
    load = batchcore.load

    def traced_load():
        loaded = load()
        if loaded is None:
            return None
        ffi, lib = loaded
        return ffi, CoreLibProxy(lib, recorder)

    patcher.function(load, traced_load)
    return patcher


def layer_metrics(
    records: Sequence[Dict],
    quality: Sequence[Dict[str, float]],
    shape: Dict[str, float],
    untraced_walls: Sequence[float],
    setup_records: Sequence[Dict],
) -> Dict[str, float]:
    """Per-layer metrics, each the median over traced passes of its
    per-pass value (counts repeat exactly from pass to pass)."""

    def per_pass(values: List[float]) -> float:
        return median(values) if values else 0.0

    def calls(*names: str) -> float:
        return per_pass(
            [sum(r["layers"].get(n, {}).get("calls", 0) for n in names) for r in records]
        )

    def own(*names: str) -> float:
        return per_pass(
            [sum(r["layers"].get(n, {}).get("self_s", 0.0) for n in names) for r in records]
        )

    def result(key: str) -> float:
        return per_pass([q[key] for q in quality if key in q])

    nodes = shape.get("nodes", 0)
    cycles = shape.get("cycles", 0)
    ticks = shape.get("ticks", 0)
    replications = shape.get("replications", 1)
    visits = calls("processor.tick")
    fabric_ticks = calls("fabric.tick")
    advances = calls("batchcore.advance")
    attempted = result("attempted")
    traced_walls = [r["wall_s"] for r in records]
    return {
        "processor.visits": visits,
        "processor.self_s": own("processor.tick", "processor.skip_ticks"),
        "processor.visit_ratio": visits / (nodes * ticks) if nodes * ticks else 0.0,
        "coherence.ticks": calls("coherence.tick"),
        "coherence.deliveries": calls("coherence.deliver"),
        "coherence.self_s": own("coherence.tick", "coherence.deliver"),
        "fabric.ticks": fabric_ticks,
        "fabric.injects": calls("fabric.inject"),
        "fabric.self_s": own("fabric.tick", "fabric.inject"),
        "fabric.visit_frac": fabric_ticks / cycles if cycles else 0.0,
        "engine.self_s": own("engine.run_window"),
        "machine.init_s": own("machine.init", "batch.init"),
        "batch.self_s": own("batch.run"),
        "batchcore.advance_calls": advances,
        "batchcore.advance_s": own("batchcore.advance"),
        "batchcore.cycles_per_advance": (
            cycles * replications / advances if advances else 0.0
        ),
        "batchcore.completions": per_pass(
            [r["counters"].get("batchcore.completions", 0) for r in records]
        ),
        "swap.calls": calls("swap.delta"),
        "swap.self_s": own("swap.delta"),
        "distance.pairwise_calls": calls("distance.pairwise"),
        "distance.pairwise_s": own("distance.pairwise"),
        "anneal.self_s": own("anneal.run"),
        "anneal.attempted": attempted,
        "anneal.accept_ratio": result("accepted") / attempted if attempted else 0.0,
        "anneal.best_distance": result("anneal_distance"),
        "suite.build_s": per_pass(
            [
                r["layers"]["suite.build"]["total_s"]
                for r in setup_records
                if "suite.build" in r["layers"]
            ]
        ),
        "solver.calls": calls("solver.solve"),
        "solver.self_s": own("solver.solve"),
        "fit.self_s": own("fit.message_curve"),
        "validation.model_rate_error": result("model_rate_error"),
        "ledger.unattributed_frac": per_pass(
            [1.0 - r["root_s"] / r["wall_s"] for r in records]
        ),
        "trace.overhead_frac": (
            median(traced_walls) / median(untraced_walls) - 1.0
            if traced_walls and untraced_walls
            else 0.0
        ),
    }
