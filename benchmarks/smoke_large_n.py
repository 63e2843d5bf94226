"""CI smoke: a short anneal at ~10^5 nodes, far above the table guard.

Machines far beyond the 4096-node dense-table guard run inside
commodity memory: evaluation uses the delta-compressed distance backend
there, and the anneal runs in the compiled swap kernel, which needs no
distance table at all.  This script is the executable form of that
promise: build the 316^2 = 99 856-node machine, check that evaluation
would use the delta backend, anneal a short budget, and fail loudly if
peak RSS crosses the 2 GB ceiling (a dense table at this size would need
~20 GB on its own).
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
from repro.mapping.strategies import random_mapping
from repro.topology.graphs import torus_neighbor_graph
from repro.topology.torus import Torus, distance_backend

RADIX = 316
DIMENSIONS = 2
STEPS = 2000
SEED = 1992
RSS_CEILING_MB = 2048.0


def run() -> dict:
    torus = Torus(radix=RADIX, dimensions=DIMENSIONS)
    backend = distance_backend(torus)
    if backend.kind != "delta":
        raise AssertionError(
            f"expected the delta backend at N={torus.node_count}, "
            f"got {backend.kind!r}"
        )
    graph = torus_neighbor_graph(RADIX, DIMENSIONS)
    start = random_mapping(torus.node_count, seed=SEED)
    began = time.perf_counter()
    result = anneal_mapping(graph, torus, start, steps=STEPS, seed=SEED)
    wall = time.perf_counter() - began
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "bench": "large_n_anneal_smoke",
        "config": f"{RADIX}^{DIMENSIONS} ({torus.node_count:,} nodes)",
        "backend": backend.kind,
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
