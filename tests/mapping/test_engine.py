"""Tests for the compiled swap kernel behind SwapEngine.

Every delta and objective is pinned to the per-edge loop over
``Torus.distance`` (the specification in ``repro.mapping.reference``)
and every objective to ``average_distance``.
"""

import random
import re
import tracemalloc

import numpy as np
import pytest

from repro.errors import MappingError
from repro.mapping import engine as engine_module
from repro.mapping.base import Mapping
from repro.mapping.engine import SwapEngine
from repro.mapping.evaluate import average_distance
from repro.mapping.strategies import random_mapping
from repro.topology import torus as torus_module
from repro.topology.graphs import (
    CommunicationGraph,
    star_graph,
    torus_neighbor_graph,
)
from repro.topology.torus import Torus

needs_kernel = pytest.mark.skipif(
    engine_module.load() is None,
    reason=f"swap kernel unavailable: {engine_module._KERNEL.failure}",
)
pytestmark = needs_kernel

#: 1-, 2- and 3-D tori, odd and even radix, radix 2 and 3 included.
SHAPES = [
    (2, 1), (3, 1), (7, 1), (8, 1),
    (2, 2), (3, 2), (4, 2), (5, 2),
    (2, 3), (3, 3), (4, 3),
]


def loop_sum(graph, torus, assignment):
    """Weighted hop-sum by the reference's per-edge loop."""
    return sum(
        weight * torus.distance(assignment[src], assignment[dst])
        for src, dst, weight in graph.edges()
    )


def loop_delta(graph, torus, assignment, a, b):
    """Swap delta by the reference's per-edge loop over the edges the
    swap can change."""
    after = list(assignment)
    after[a], after[b] = after[b], after[a]
    delta = 0.0
    for src, dst, weight in graph.edges():
        if a in (src, dst) or b in (src, dst):
            delta += weight * (
                torus.distance(after[src], after[dst])
                - torus.distance(assignment[src], assignment[dst])
            )
    return delta


def weighted_graph(threads, seed):
    """An irregular graph with integer weights 1..4 and uneven degrees."""
    rng = random.Random(seed)
    edges = {}
    for _ in range(2 * threads):
        src, dst = rng.randrange(threads), rng.randrange(threads)
        if src != dst:
            edges[(src, dst)] = float(rng.randrange(1, 5))
    edges.setdefault((0, 1), 1.0)
    return CommunicationGraph(threads=threads, weights=edges)


def assert_pinned(graph, torus, seed, swaps=40):
    """Objective and ``swaps`` random deltas (applied as they go, so the
    bound position is read in place) against the loops."""
    engine = SwapEngine(graph, torus)
    mapping = random_mapping(torus.node_count, seed=seed)
    position = np.array(mapping.assignment, dtype=np.int64)
    total, average = engine.objective(position)
    assert total == loop_sum(graph, torus, mapping.assignment)
    assert average == average_distance(graph, mapping, torus)
    rng = random.Random(seed)
    threads = graph.threads
    for _ in range(swaps):
        a, b = rng.randrange(threads), rng.randrange(threads)
        assignment = position.tolist()
        assert engine.swap_delta(position, a, b) == loop_delta(
            graph, torus, assignment, a, b
        )
        position[a], position[b] = position[b], position[a]
    moved = Mapping(tuple(position.tolist()), torus.node_count)
    total, average = engine.objective(position)
    assert total == loop_sum(graph, torus, moved.assignment)
    assert average == average_distance(graph, moved, torus)


class TestKernelParity:
    @pytest.mark.parametrize("radix,dimensions", SHAPES)
    def test_torus_neighbor_graph(self, radix, dimensions):
        graph = torus_neighbor_graph(radix, dimensions)
        assert_pinned(graph, Torus(radix=radix, dimensions=dimensions), seed=radix)

    @pytest.mark.parametrize("radix,dimensions", [(3, 2), (4, 2), (5, 1), (2, 3)])
    def test_weighted_irregular_graph(self, radix, dimensions):
        torus = Torus(radix=radix, dimensions=dimensions)
        graph = weighted_graph(torus.node_count, seed=radix * dimensions)
        assert len(set(np.diff(graph.incident_csr()[0]).tolist())) > 1
        assert_pinned(graph, torus, seed=dimensions)

    def test_star_hub_of_degree_n_minus_one(self):
        torus = Torus(radix=5, dimensions=2)
        graph = star_graph(25)
        # Every draw that picks the hub (thread 0) walks its whole row.
        engine = SwapEngine(graph, torus)
        position = np.array(random_mapping(25, seed=4).assignment, dtype=np.int64)
        for a, b in ((0, 7), (13, 0), (3, 9), (24, 1)):
            assert engine.swap_delta(position, a, b) == loop_delta(
                graph, torus, position.tolist(), a, b
            )
        assert_pinned(graph, torus, seed=4)

    def test_torus_above_the_distance_table_guard(self):
        radix = 65
        torus = Torus(radix=radix, dimensions=2)
        assert torus.node_count > torus_module.DISTANCE_TABLE_MAX_NODES
        assert torus.distance_table() is None
        assert_pinned(torus_neighbor_graph(radix, 2), torus, seed=9, swaps=10)


class TestBinding:
    def test_chains_share_one_engine(self):
        # One engine over several chains' arrays (the multi-chain path)
        # prices each swap as a fresh engine on that chain alone would.
        torus = Torus(radix=4, dimensions=2)
        for graph in (torus_neighbor_graph(4, 2), star_graph(16)):
            shared = SwapEngine(graph, torus)
            chains = [
                np.array(random_mapping(16, seed=s).assignment, dtype=np.int64)
                for s in range(3)
            ]
            for row, a, b in ((0, 0, 5), (2, 3, 0), (1, 7, 2), (2, 15, 1), (0, 4, 9)):
                alone = SwapEngine(graph, torus).swap_delta(chains[row], a, b)
                assert shared.swap_delta(chains[row], a, b) == alone

    def test_setup_copies_no_adjacency(self):
        # The kernel reads incident_csr() and edge_arrays() in place: an
        # engine on a 256 x 256 torus (about 6 MB of adjacency) or on a
        # 4096-thread star (a threads x max degree matrix would be
        # 4096 x 8190 entries) allocates next to nothing.
        for graph, torus in (
            (torus_neighbor_graph(256, 2), Torus(radix=256, dimensions=2)),
            (star_graph(4096), Torus(radix=64, dimensions=2)),
        ):
            graph.incident_csr()
            graph.edge_arrays()
            tracemalloc.start()
            try:
                SwapEngine(graph, torus)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024, peak

    def test_rejects_positions_it_cannot_read_in_place(self):
        torus = Torus(radix=4, dimensions=2)
        engine = SwapEngine(torus_neighbor_graph(4, 2), torus)
        good = np.arange(16, dtype=np.int64)
        for bad in (good.astype(np.int32), good[::-1], good[:8], np.arange(32)[::2]):
            with pytest.raises(MappingError, match="C-contiguous int64"):
                engine.swap_delta(bad, 0, 1)
        for a, b in ((-1, 3), (0, 16)):
            with pytest.raises(MappingError, match="outside"):
                engine.swap_delta(good, a, b)


class TestFallback:
    """A kernel that fails to load is one loud fallback to the loops."""

    def test_optimizers_run_the_reference_loudly(self, monkeypatch):
        from repro import obs
        from repro.mapping.anneal import anneal_mapping
        from repro.mapping.chains import anneal_chains
        from repro.mapping.optimize import optimize_mapping

        torus = Torus(radix=4, dimensions=2)
        start = random_mapping(16, seed=3)
        runs = {
            "climb": lambda: optimize_mapping(
                graph, torus, start, steps=600, seed=2, maximize=True
            ),
            "anneal": lambda: anneal_mapping(graph, torus, start, steps=600, seed=2),
            "chains": lambda: anneal_chains(
                graph, torus, start, chains=3, steps=400, seed=2
            ),
        }
        for graph in (torus_neighbor_graph(4, 2), weighted_graph(16, seed=1)):
            fast = {name: run() for name, run in runs.items()}
            with monkeypatch.context() as patched:
                patched.setattr(engine_module, "load", lambda: None)
                counter = obs.REGISTRY.counter("mapping.fallback")
                for name, run in runs.items():
                    before = counter.value
                    with pytest.warns(
                        engine_module.MappingFallbackWarning,
                        match="loop reference",
                    ) as caught:
                        slow = run()
                    assert len(caught) == 1, name
                    assert counter.value == before + 1, name
                    assert slow == fast[name], name
                with pytest.raises(MappingError, match="unavailable"):
                    SwapEngine(graph, torus)


def test_every_declared_function_resolves_in_the_kernel():
    _, lib = engine_module.load()
    names = re.findall(r"(\w+)\s*\(", engine_module.CDEF)
    assert names == ["sw_delta", "sw_objective"]
    for name in names:
        assert callable(getattr(lib, name)), name


def test_declared_struct_matches_the_kernel_source():
    # cffi's ABI mode lays SwapKernel out from the declaration alone, so
    # it must be the C source's struct field for field.
    def struct(text):
        body = re.search(r"typedef struct \{(.*?)\} SwapKernel;", text, re.S)
        return body.group(1).split()

    source = engine_module._KERNEL.source.read_text()
    assert struct(engine_module.CDEF) == struct(source)
