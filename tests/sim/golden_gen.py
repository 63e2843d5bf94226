"""Regenerate the simulator parity fixture (tests/sim/golden_parity.json).

Run from the repo root:

    PYTHONPATH=src python tests/sim/golden_gen.py

Each machine case records a full seeded run — message counts, delivery
counts, link-flit totals, and complete message-latency and hop
histograms — which ``test_golden_parity.py`` replays cycle for cycle.
The fixture is recorded history: regenerate it only from a tree whose
simulator behavior is known good, and check that the entries already
in it come out byte-identical.

The ``probe-*`` entries pin :func:`repro.sim.telemetry.run_probe` on each
of its four workloads: traffic totals plus a SHA-256 of the telemetry
snapshot (its ``label`` dropped), whose busy and depth matrices are too
large to store readably.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter

from repro.mapping.strategies import identity_mapping, random_mapping
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.sim.telemetry import PROBE_WORKLOADS, run_probe
from repro.topology.graphs import torus_neighbor_graph
from repro.workload.synthetic import build_programs

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "golden_parity.json")

CASES = [
    ("cut_through", 1, "identity"),
    ("cut_through", 2, "random"),
    ("wormhole", 1, "identity"),
    ("wormhole", 2, "random"),
]


def run_case(switching: str, contexts: int, mapping_name: str) -> dict:
    config = SimulationConfig(
        contexts=contexts,
        switching=switching,
        warmup_network_cycles=0,
        measure_network_cycles=2000,
    )
    graph = torus_neighbor_graph(8, 2)
    programs = build_programs(
        graph, contexts, config.compute_cycles, config.compute_jitter
    )
    if mapping_name == "identity":
        mapping = identity_mapping(64)
    else:
        mapping = random_mapping(64, seed=7)

    latencies: Counter = Counter()
    hops: Counter = Counter()

    machine = Machine(config, mapping, programs)
    original_deliver = machine._deliver

    def recording_deliver(transit):
        message = transit.message
        original_deliver(transit)
        latencies[message.delivered_at - message.injected_at] += 1
        hops[transit.hops] += 1

    machine.fabric.on_delivery = recording_deliver
    summary = machine.run(warmup=500, measure=2000)

    return {
        "messages_sent": summary.messages_sent,
        "transactions": summary.transactions,
        "mean_message_latency": summary.mean_message_latency,
        "mean_per_hop_latency": summary.mean_per_hop_latency,
        "delivered": machine.fabric.delivered_count,
        "link_flits_total": sum(machine.fabric.link_flits.values()),
        "latency_histogram": {
            str(k): v for k, v in sorted(latencies.items())
        },
        "hop_histogram": {str(k): v for k, v in sorted(hops.items())},
    }


def probe_case(workload: str) -> dict:
    result = run_probe(workload)
    snapshot = dict(result.snapshot)
    del snapshot["label"]
    canonical = json.dumps(snapshot, sort_keys=True).encode()
    return {
        "injected": result.injected,
        "delivered": result.delivered,
        "total_cycles": result.total_cycles,
        "mean_hops": result.mean_hops,
        "latency_counts": snapshot["latency"]["counts"],
        "snapshot_sha256": hashlib.sha256(canonical).hexdigest(),
    }


def main() -> None:
    golden = {
        f"{switching}-p{contexts}-{mapping}": run_case(
            switching, contexts, mapping
        )
        for switching, contexts, mapping in CASES
    }
    for workload in PROBE_WORKLOADS:
        golden[f"probe-{workload}"] = probe_case(workload)
    with open(FIXTURE, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
