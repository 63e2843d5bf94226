"""Tests for the compiled swap kernel behind SwapEngine.

Every delta and objective is pinned to the per-edge loop over
``Torus.distance`` (the specification in ``repro.mapping.reference``)
and every objective to ``average_distance``; the kernel's draws to
``random.Random`` itself, word for word; and whole chains and climbs to
the reference loops, seed for seed.
"""

import random
import re
import tracemalloc

import numpy as np
import pytest

from repro.errors import MappingError
from repro.mapping import engine as engine_module
from repro.mapping.anneal import anneal_mapping
from repro.mapping.base import Mapping
from repro.mapping.engine import SwapEngine
from repro.mapping.evaluate import average_distance
from repro.mapping.optimize import optimize_mapping
from repro.mapping.reference import (
    reference_anneal_mapping,
    reference_optimize_mapping,
)
from repro.mapping.strategies import identity_mapping, random_mapping
from repro.topology import torus as torus_module
from repro.topology.graphs import (
    CommunicationGraph,
    ring_graph,
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


#: randrange bounds: one word per try for every n below 2**32, and n = 1
#: redraws until a word's top bit is 0.
BOUNDS = sorted(
    {1, 2, 3, 99_856, 10**6, 2**32 - 1}
    | {2**k + offset for k in (2, 5, 16, 17, 31) for offset in (-1, 0, 1)}
)


def generators(seed):
    """``random.Random(seed)`` fresh (state index 624, so the first draw
    regenerates the state) and mid-stream (index 100)."""
    fresh = random.Random(seed)
    mid = random.Random(seed)
    for _ in range(100):
        mid.getrandbits(32)
    assert fresh.getstate()[1][-1] == 624 and mid.getstate()[1][-1] == 100
    return fresh, mid


def same_state(twister, generator):
    internal = generator.getstate()[1]
    return list(twister.state) == list(internal[:-1]) and twister.index == internal[-1]


class TestHandoff:
    """The kernel consumes a random.Random stream exactly as Python does."""

    @pytest.mark.parametrize("n", BOUNDS)
    def test_randrange(self, n):
        _, lib = engine_module.load()
        for generator in generators(n):
            twister = engine_module.twister(generator)
            drawn = [lib.sw_randbelow(twister, n) for _ in range(700)]
            assert drawn == [generator.randrange(n) for _ in range(700)]
            assert same_state(twister, generator)

    def test_random_interleaved_with_randrange(self):
        _, lib = engine_module.load()
        for generator in generators(7):
            twister = engine_module.twister(generator)
            for step in range(600):
                if step % 3:
                    assert lib.sw_random(twister) == generator.random()
                else:
                    assert lib.sw_randbelow(twister, 1000) == generator.randrange(1000)
            assert same_state(twister, generator)

    @pytest.mark.parametrize("count", [1, 2, 10, 4096, 99_856, 10**6])
    def test_shuffle(self, count):
        expected = list(range(count))
        random.Random(count).shuffle(expected)
        assert engine_module.shuffled(count, count).tolist() == expected

    def test_random_mapping_is_pythons_shuffle(self):
        for processors, seed in ((64, 0), (99_856, 1)):
            assignment = list(range(processors))
            random.Random(seed).shuffle(assignment)
            mapping = random_mapping(processors, seed)
            assert mapping == Mapping(tuple(assignment), processors)
            assert mapping.as_array().tolist() == assignment

    def test_draws_past_32_bits_are_refused(self):
        # The guard itself: a 2**32-thread graph is never built.
        engine_module.check_draws(2**32 - 1)
        for n in (2**32, 2**40):
            with pytest.raises(MappingError, match="more than 32 random bits"):
                engine_module.check_draws(n)
            with pytest.raises(MappingError, match="more than 32 random bits"):
                engine_module.shuffled(n, 0)
            with pytest.raises(MappingError, match="more than 32 random bits"):
                random_mapping(n, 0)


def climbs_and_anneals(graph, torus, start, steps, seed, **schedule):
    """(fast, reference) result pairs: the annealer and both climbs."""
    return [
        (
            anneal_mapping(graph, torus, start, steps=steps, seed=seed, **schedule),
            reference_anneal_mapping(graph, torus, start, steps, seed, **schedule),
        ),
    ] + [
        (
            optimize_mapping(graph, torus, start, steps, seed, maximize),
            reference_optimize_mapping(graph, torus, start, steps, seed, maximize),
        )
        for maximize in (False, True)
    ]


class TestChainParity:
    """One kernel call per chain or climb equals the reference loops."""

    @pytest.mark.parametrize("seed", [0, 5])
    def test_irregular_weighted_graph(self, seed):
        torus = Torus(radix=5, dimensions=2)
        graph = weighted_graph(25, seed=seed)
        start = random_mapping(25, seed=seed + 1)
        for fast, slow in climbs_and_anneals(graph, torus, start, 3000, seed):
            assert fast == slow

    def test_temperature_cooled_under_the_draw_cutoff(self):
        # From 2.0 at 0.5 per step the temperature passes 1e-12 after 41
        # steps; from then on no random() is drawn and only improvements
        # are taken.
        torus = Torus(radix=4, dimensions=2)
        graph = torus_neighbor_graph(4, 2)
        start = random_mapping(16, seed=3)
        fast = anneal_mapping(graph, torus, start, 400, 2, 2.0, 0.5)
        assert fast == reference_anneal_mapping(graph, torus, start, 400, 2, 2.0, 0.5)
        assert fast.accepted_moves > 0

    def test_zero_steps(self):
        torus = Torus(radix=4, dimensions=2)
        graph = torus_neighbor_graph(4, 2)
        start = random_mapping(16, seed=4)
        for fast, slow in climbs_and_anneals(graph, torus, start, 0, 1):
            assert fast == slow
            assert fast.mapping == start

    def test_one_thread(self):
        # A one-thread graph has no edges, so both optimizers refuse it
        # before either path runs.  The kernel's chain on one thread is
        # the reference loop's: every step's two randrange(1) draws
        # collide, so nothing is attempted, but the stream is consumed.
        graph = CommunicationGraph(threads=1, weights={})
        torus = Torus(radix=1, dimensions=1)
        start = identity_mapping(1)
        with pytest.raises(MappingError, match="no edges"):
            anneal_mapping(graph, torus, start, steps=10)
        with pytest.raises(MappingError, match="no edges"):
            optimize_mapping(graph, torus, start, 10)
        ffi, lib = engine_module.load()
        engine = SwapEngine(graph, torus)
        engine._bind(np.zeros(1, dtype=np.int64))
        generator = random.Random(9)
        stream = engine_module.twister(generator)
        chain = ffi.new(
            "Chain *", {"steps": 50, "temperature": 2.0, "cooling": 0.9, "sense": 1.0}
        )
        assert lib.sw_chain(engine._kernel, stream, chain) == 0
        for _ in range(100):
            generator.randrange(1)
        assert (chain.accepted, chain.attempted) == (0, 0)
        assert same_state(stream, generator)

    def test_two_threads(self):
        # The smallest machine the optimizers take.  Half of all draws
        # collide: skipped steps still cool.
        torus = Torus(radix=2, dimensions=1)
        start = identity_mapping(2)
        for fast, slow in climbs_and_anneals(ring_graph(2), torus, start, 300, 4):
            assert fast == slow

    def test_run_refuses_a_read_only_position(self):
        torus = Torus(radix=4, dimensions=2)
        engine = SwapEngine(torus_neighbor_graph(4, 2), torus)
        with pytest.raises(MappingError, match="writable"):
            engine.run(identity_mapping(16).as_array(), 0, 10)


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


    def test_random_mapping_shuffles_in_python_loudly(self, monkeypatch):
        from repro import obs

        fast = random_mapping(500, seed=6)
        monkeypatch.setattr(engine_module, "load", lambda: None)
        counter = obs.REGISTRY.counter("mapping.fallback")
        before = counter.value
        with pytest.warns(engine_module.MappingFallbackWarning) as caught:
            slow = random_mapping(500, seed=6)
        assert len(caught) == 1 and counter.value == before + 1
        assert slow == fast


def test_every_declared_function_resolves_in_the_kernel():
    _, lib = engine_module.load()
    names = re.findall(r"(\w+)\s*\(", engine_module.CDEF)
    assert names == [
        "sw_randbelow",
        "sw_random",
        "sw_shuffle",
        "sw_delta",
        "sw_objective",
        "sw_chain",
        "sw_place",
    ]
    for name in names:
        assert callable(getattr(lib, name)), name


def test_declared_struct_matches_the_kernel_source():
    # cffi's ABI mode lays each struct out from the declaration alone, so
    # it must be the C source's struct field for field.
    def struct(text, name):
        body = re.search(r"typedef struct \{([^}]*)\} %s;" % name, text)
        return body.group(1).split()

    source = engine_module._KERNEL.source.read_text()
    for name in ("SwapKernel", "Twister", "Chain"):
        assert struct(engine_module.CDEF, name) == struct(source, name), name
