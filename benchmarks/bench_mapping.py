"""Benchmarks: the locality engine (vectorized evaluation, compiled swap
pricing) vs the loop reference.

Two entry points:

* ``pytest benchmarks/bench_mapping.py --benchmark-only`` — timed runs of
  the evaluation kernels and the multi-chain sweep (chains run one
  after another on the compiled swap kernel), each asserting
  bit-identical parity with the loop-based implementations in
  :mod:`repro.mapping.reference` (or, for the chains, with one
  ``anneal_mapping`` per chain).  The single-chain anneal is measured
  by ``perfbench/``'s ``anneal_large`` workload and pinned to the
  reference by ``tests/mapping/test_anneal.py``.
* ``python benchmarks/bench_mapping.py [--quick] [--output FILE]`` —
  script mode for CI smoke: measures the annealing-sweep speedup
  directly, checks parity, and writes a small JSON artifact with the
  measured numbers.

Timing *assertions* (the >= 10x sweep floor from the performance docs)
only fire when ``REPRO_BENCH_STRICT=1`` is set, so shared CI runners
cannot flake the suite; parity assertions always run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.mapping.anneal import anneal_mapping
from repro.mapping.chains import anneal_chains
from repro.mapping.evaluate import average_distance, distance_histogram
from repro.mapping.reference import (
    reference_anneal_mapping,
    reference_average_distance,
    reference_distance_histogram,
)
from repro.mapping.strategies import random_mapping
from repro.topology.graphs import torus_neighbor_graph
from repro.topology.torus import Torus

RADIX = 8
DIMENSIONS = 2
SEED = 1992

STRICT = os.environ.get("REPRO_BENCH_STRICT") == "1"


def _setup(radix: int = RADIX):
    torus = Torus(radix=radix, dimensions=DIMENSIONS)
    graph = torus_neighbor_graph(radix, DIMENSIONS)
    start = random_mapping(torus.node_count, seed=SEED)
    return torus, graph, start


def test_average_distance_kernel(benchmark):
    torus, graph, start = _setup()
    value = benchmark(average_distance, graph, start, torus)
    assert value == reference_average_distance(graph, start, torus)


def test_distance_histogram_kernel(benchmark):
    torus, graph, start = _setup()
    histogram = benchmark(distance_histogram, graph, start, torus)
    assert histogram == reference_distance_histogram(graph, start, torus)


def test_anneal_multi_chain_batched(benchmark):
    torus, graph, start = _setup()
    search = benchmark(
        anneal_chains, graph, torus, start, chains=4, steps=3000, seed=SEED
    )
    for index, result in enumerate(search.results):
        assert result == anneal_mapping(
            graph, torus, start, steps=3000, seed=SEED + index
        )


def test_annealing_sweep_speedup():
    """The headline claim: the chain sweep is >= 10x the loop reference.

    Always checks exact parity (same assignments, same accepted and
    attempted counts); only enforces the timing floor under
    ``REPRO_BENCH_STRICT=1``.
    """
    report = measure_sweep(chains=8, steps=5000)
    assert report["parity"], "chain sweep diverged from the reference"
    if STRICT:
        assert report["speedup"] >= 10.0, report


def measure_sweep(chains: int = 8, steps: int = 5000) -> dict:
    """Time an R-chain annealing sweep, engine vs loop reference."""
    torus, graph, start = _setup()

    began = time.perf_counter()
    reference = [
        reference_anneal_mapping(graph, torus, start, steps=steps, seed=SEED + i)
        for i in range(chains)
    ]
    reference_seconds = time.perf_counter() - began

    began = time.perf_counter()
    search = anneal_chains(
        graph, torus, start, chains=chains, steps=steps, seed=SEED
    )
    batched_seconds = time.perf_counter() - began

    parity = all(
        fast == slow for fast, slow in zip(search.results, reference)
    )
    return {
        "radix": RADIX,
        "dimensions": DIMENSIONS,
        "chains": chains,
        "steps": steps,
        "reference_seconds": round(reference_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "speedup": round(reference_seconds / batched_seconds, 2),
        "parity": parity,
        "best_distance": search.best.best_distance,
        "initial_distance": search.best.initial_distance,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="annealing-sweep speedup measurement (script mode)"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small sweep (2 chains x 800 steps) for CI smoke",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the measurement as JSON to FILE",
    )
    args = parser.parse_args(argv)
    chains, steps = (2, 800) if args.quick else (8, 5000)
    report = measure_sweep(chains=chains, steps=steps)
    print(
        f"{chains} chains x {steps} steps: reference "
        f"{report['reference_seconds']}s, batched "
        f"{report['batched_seconds']}s -> {report['speedup']}x "
        f"(parity: {report['parity']})"
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"report written to {args.output}")
    return 0 if report["parity"] else 1


if __name__ == "__main__":
    sys.exit(main())
