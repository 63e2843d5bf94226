"""Shared helpers for the measuring benchmarks.

These benchmarks time what no other harness measures: the wormhole
fabric's telemetry overhead, pool dispatch, the solvers and the mapping
kernels.  The paper's artifacts are not regenerated here: run them with
``repro-locality run <id>`` (``repro-locality list`` names every id);
the tier-1 tests assert the claims each one makes
(``tests/experiments/`` for the figures, tables and ablations).  The
repository benchmark, ``perfbench/``, owns the validation pipeline,
light-traffic scaling, batched replication and the large anneal.

Besides pytest-benchmark's own reports, the session leaves machine-
readable breadcrumbs at the repo root: one ``BENCH_<module>.json`` per
benchmark module that ran (``BENCH_simulator.json``,
``BENCH_mapping.json``, ...), each a list of ``{bench, config, wall_s,
speedup_vs_reference}`` rows.  Every test contributes a wall-clock row
automatically; tests that measure an explicit ratio (jobs=2 against
serial, telemetry attached against detached) add richer rows through the
``bench_record`` fixture.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import pytest

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_ROWS = defaultdict(list)


def _module_tag(request) -> str:
    name = request.module.__name__
    return name[len("bench_"):] if name.startswith("bench_") else name


@pytest.fixture
def bench_record(request):
    """Record a named measurement row for this module's BENCH json."""
    tag = _module_tag(request)

    def record(bench, config, wall_s, speedup_vs_reference=None):
        _ROWS[tag].append(
            {
                "bench": bench,
                "config": config,
                "wall_s": wall_s,
                "speedup_vs_reference": speedup_vs_reference,
            }
        )

    return record


@pytest.fixture(autouse=True)
def _record_wall_clock(request):
    """Every benchmark test leaves at least a wall-clock row."""
    began = time.perf_counter()
    yield
    _ROWS[_module_tag(request)].append(
        {
            "bench": request.node.name,
            "config": "pytest",
            "wall_s": round(time.perf_counter() - began, 4),
            "speedup_vs_reference": None,
        }
    )


def pytest_sessionfinish(session):
    for tag, rows in _ROWS.items():
        path = os.path.join(_REPO_ROOT, f"BENCH_{tag}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=2)
