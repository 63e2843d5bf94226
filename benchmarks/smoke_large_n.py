"""CI smoke: a short anneal at ~10^5 nodes inside commodity memory.

Evaluation uses the delta-compressed distance backend (O(n * k) ring
rows plus the shared coordinate array) at every torus size, and the
anneal runs in the compiled swap kernel, which computes distances from
node ids.  This script is the executable form of that promise: build
the 316^2 = 99 856-node machine, anneal a short budget, check that the
delta backend's evaluations of the start and of the result equal the
kernel's objective and the anneal's distance, and fail loudly if peak
RSS crosses the 2 GB ceiling (an N x N distance table at this size
would need ~20 GB on its own).
Writes a JSON artifact with the measured throughput so CI uploads keep a
trajectory of large-N performance.

Usage: ``python benchmarks/smoke_large_n.py [--output FILE]``
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from repro.mapping.anneal import anneal_mapping
from repro.mapping.evaluate import average_distance
from repro.mapping.strategies import random_mapping
from repro.topology.graphs import torus_neighbor_graph
from repro.topology.torus import Torus

RADIX = 316
DIMENSIONS = 2
STEPS = 2000
SEED = 1992
RSS_CEILING_MB = 2048.0


def run() -> dict:
    torus = Torus(radix=RADIX, dimensions=DIMENSIONS)
    graph = torus_neighbor_graph(RADIX, DIMENSIONS)
    start = random_mapping(torus.node_count, seed=SEED)
    began = time.perf_counter()
    result = anneal_mapping(graph, torus, start, steps=STEPS, seed=SEED)
    wall = time.perf_counter() - began
    evaluated = average_distance(graph, result.mapping, torus)
    if evaluated != result.distance:
        raise AssertionError(
            f"delta-backend evaluation {evaluated!r} differs from the "
            f"anneal's distance {result.distance!r}"
        )
    evaluated = average_distance(graph, start, torus)
    if evaluated != result.initial_distance:
        raise AssertionError(
            f"delta-backend evaluation {evaluated!r} of the start differs "
            f"from the kernel objective's {result.initial_distance!r}"
        )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "bench": "large_n_anneal_smoke",
        "config": f"{RADIX}^{DIMENSIONS} ({torus.node_count:,} nodes)",
        "steps": STEPS,
        "wall_s": round(wall, 2),
        "steps_per_s": round(STEPS / wall, 1),
        "peak_rss_mb": round(peak_rss_mb, 1),
        "rss_ceiling_mb": RSS_CEILING_MB,
        "initial_distance": result.initial_distance,
        "best_distance": result.best_distance,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="large-N anneal smoke (delta-backend evaluation, RSS ceiling)"
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the measurement row as JSON",
    )
    args = parser.parse_args(argv)
    row = run()
    print(
        f"{row['config']}: {row['steps']} steps in {row['wall_s']}s "
        f"({row['steps_per_s']} steps/s), peak RSS {row['peak_rss_mb']} MB"
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(row, handle, indent=2)
    if row["peak_rss_mb"] >= RSS_CEILING_MB:
        print(
            f"FAIL: peak RSS {row['peak_rss_mb']} MB exceeds the "
            f"{RSS_CEILING_MB:.0f} MB ceiling",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
