"""Shared simulation data for the validation experiments (Figures 3-5).

Figures 3, 4, and 5 all draw on the same suite of 64-node simulation
runs (one per mapping per context count).  Simulations are deterministic,
so the results are memoized per (contexts, quick) to keep the three
drivers — and the benchmarks that time them — from re-simulating.
"""

from __future__ import annotations

import functools

from repro.analysis.validation import ValidationReport, run_validation
from repro.mapping.families import paper_mapping_suite
from repro.sim.config import SimulationConfig
from repro.topology.torus import Torus

__all__ = ["validation_config", "validation_report"]


def validation_config(contexts: int, quick: bool = False) -> SimulationConfig:
    """The Section 3 machine configuration for one context count.

    ``quick`` shrinks the measurement window (for tests and smoke runs);
    full runs use windows long enough for a few hundred transactions per
    node.
    """
    if quick:
        return SimulationConfig(
            contexts=contexts,
            warmup_network_cycles=1000,
            measure_network_cycles=4000,
        )
    return SimulationConfig(
        contexts=contexts,
        warmup_network_cycles=3000,
        measure_network_cycles=15000,
    )


@functools.lru_cache(maxsize=None)
def validation_report(contexts: int, quick: bool = False) -> ValidationReport:
    """Memoized Section 3.3 validation run for one context count."""
    config = validation_config(contexts, quick)
    torus = Torus(radix=config.radix, dimensions=config.dimensions)
    steps = 1500 if quick else 4000
    mappings = paper_mapping_suite(torus, adversarial_steps=steps)
    return run_validation(config, mappings)

