"""Cycle-exact parity against recorded simulator history.

``golden_parity.json`` was recorded by ``golden_gen.py`` from known-good
trees: the four machine entries before the fabrics' channel bookkeeping
was vectorized, the four ``probe-*`` entries before the wormhole fabric
was reduced to one implementation.  These tests re-run the same seeded
64-node configurations and require identical message counts,
latency/hop histograms, and link-flit totals, and re-run the four
:func:`repro.sim.telemetry.run_probe` workloads and require identical
traffic totals and telemetry snapshots — any behavioral drift in the
fabric hot loops fails loudly here.
"""

import json

import pytest

from repro.sim.telemetry import PROBE_WORKLOADS
from tests.sim.golden_gen import CASES, FIXTURE, probe_case, run_case


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.mark.parametrize(
    "switching,contexts,mapping_name",
    CASES,
    ids=[f"{s}-p{c}-{m}" for s, c, m in CASES],
)
def test_matches_reference_simulator(golden, switching, contexts, mapping_name):
    expected = golden[f"{switching}-p{contexts}-{mapping_name}"]
    actual = run_case(switching, contexts, mapping_name)
    assert actual == expected


@pytest.mark.parametrize("workload", sorted(PROBE_WORKLOADS))
def test_probe_matches_recorded(golden, workload):
    assert probe_case(workload) == golden[f"probe-{workload}"]
