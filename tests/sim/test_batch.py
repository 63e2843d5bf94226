"""Tests for batched replication (``run_batch`` / ``BatchMachine``).

The serial ``Machine`` is the bit-exactness oracle: every per-seed
summary (and telemetry snapshot) out of :func:`run_batch` must be
identical to the solo run for the same seed, in seed order, whether the
batch ran on the compiled core or as serial machines.
"""

import copy
import re
import warnings

import numpy as np
import pytest

from repro import obs
from repro.errors import MappingError, ParameterError, SimulationError
from repro.mapping.strategies import (
    identity_mapping,
    random_mapping,
)
from repro.sim import batchcore
from repro.sim.batch import BatchFallbackWarning, BatchMachine, run_batch
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.sim.message import _FLITS_BY_KIND, MessageKind
from repro.sim.replicate import run_replications
from repro.sim.telemetry import TelemetryConfig
from repro.topology.graphs import ring_graph, torus_neighbor_graph
from repro.workload.generators import (
    HotSpotProgram,
    uniform_random_graph_programs,
)
from repro.workload.scripted import ScriptedProgram
from repro.workload.synthetic import NeighborExchangeProgram, build_programs


#: Tests that construct a BatchMachine need the compiled core.
needs_core = pytest.mark.skipif(
    batchcore.load() is None,
    reason=f"batch core unavailable: {batchcore.load_failure()}",
)


def small_setup(radix=4, dimensions=2, contexts=2, switching="cut_through",
                speedup=1, mapping_kind="random"):
    config = SimulationConfig(
        radix=radix, dimensions=dimensions, contexts=contexts,
        switching=switching, network_speedup=speedup,
        warmup_network_cycles=200, measure_network_cycles=800,
    )
    nodes = config.node_count
    graph = torus_neighbor_graph(radix, dimensions)
    programs = build_programs(
        graph, contexts, config.compute_cycles, config.compute_jitter
    )
    mapping = (
        identity_mapping(nodes)
        if mapping_kind == "identity"
        else random_mapping(nodes, seed=radix)
    )
    return config, mapping, programs


def serial_summaries(config, mapping, programs, seeds, telemetry=None):
    summaries = []
    for seed in seeds:
        machine = Machine(
            config.with_seed(seed), mapping, copy.deepcopy(programs)
        )
        if telemetry is not None:
            machine.attach_telemetry(telemetry)
        summaries.append(machine.run())
    return summaries


def assert_parity(batched, serial):
    assert len(batched) == len(serial)
    for got, want in zip(batched, serial):
        assert got.as_dict() == want.as_dict(), {
            key: (got.as_dict()[key], want.as_dict()[key])
            for key in want.as_dict()
            if got.as_dict()[key] != want.as_dict()[key]
        }


class TestBatchParity:
    def test_cut_through_matches_serial_per_seed(self):
        config, mapping, programs = small_setup()
        seeds = (config.seed, config.seed + 1, config.seed + 2)
        batched = run_batch(config, mapping, programs, seeds)
        assert_parity(
            batched, serial_summaries(config, mapping, programs, seeds)
        )

    def test_wormhole_matches_serial_per_seed(self):
        config, mapping, programs = small_setup(switching="wormhole")
        seeds = (config.seed, config.seed + 1)
        batched = run_batch(config, mapping, programs, seeds)
        assert_parity(
            batched, serial_summaries(config, mapping, programs, seeds)
        )

    def test_three_dimensional_identity_mapping(self):
        config, mapping, programs = small_setup(
            radix=3, dimensions=3, mapping_kind="identity"
        )
        seeds = (config.seed, config.seed + 1)
        batched = run_batch(config, mapping, programs, seeds)
        assert_parity(
            batched, serial_summaries(config, mapping, programs, seeds)
        )

    def test_network_speedup_two(self):
        config, mapping, programs = small_setup(speedup=2)
        seeds = (config.seed, config.seed + 1)
        batched = run_batch(config, mapping, programs, seeds)
        assert_parity(
            batched, serial_summaries(config, mapping, programs, seeds)
        )

    def test_telemetry_snapshots_match_serial(self):
        config, mapping, programs = small_setup()
        seeds = (config.seed, config.seed + 1)
        telemetry = TelemetryConfig(epoch_cycles=128)
        batched = run_replications(
            config, mapping, programs, seeds, telemetry=telemetry
        ).summaries
        serial = serial_summaries(
            config, mapping, programs, seeds, telemetry=telemetry
        )
        assert_parity(batched, serial)
        for got, want in zip(batched, serial):
            assert got.telemetry == want.telemetry
            assert got.telemetry is not None

    def test_programs_not_mutated(self):
        # run_batch deep-copies per replication; the caller's pristine
        # originals must come back with their cursors untouched.
        config, mapping, programs = small_setup()
        positions = [
            [program._position for program in instance]
            for instance in programs
        ]
        run_batch(config, mapping, programs, (config.seed,))
        assert positions == [
            [program._position for program in instance]
            for instance in programs
        ]


def count_batch_machines(monkeypatch):
    """Record every BatchMachine construction; returns the list."""
    built = []
    init = BatchMachine.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BatchMachine, "__init__", counting)
    return built


class TestEngineSelection:
    @needs_core
    def test_engine_attribute_is_reported(self):
        config, mapping, programs = small_setup()
        machine = BatchMachine(config, mapping, programs, (config.seed,))
        assert machine.engine == "c"

    def test_wormhole_uses_python_path(self, monkeypatch):
        # Wormhole batches run as serial (Python) machines, never on the
        # core, and return the serial summaries.
        config, mapping, programs = small_setup(switching="wormhole")
        seeds = (config.seed, config.seed + 1)
        built = count_batch_machines(monkeypatch)
        batched = run_batch(config, mapping, programs, seeds)
        assert built == []
        assert_parity(
            batched, serial_summaries(config, mapping, programs, seeds)
        )

    def test_telemetry_uses_python_path(self, monkeypatch):
        # Telemetry-attached batches run as serial (Python) machines too.
        config, mapping, programs = small_setup()
        seeds = (config.seed, config.seed + 1)
        telemetry = TelemetryConfig(epoch_cycles=128)
        built = count_batch_machines(monkeypatch)
        batched = run_replications(
            config, mapping, programs, seeds, telemetry=telemetry
        ).summaries
        assert built == []
        serial = serial_summaries(
            config, mapping, programs, seeds, telemetry=telemetry
        )
        assert_parity(batched, serial)
        assert [s.telemetry for s in batched] == [s.telemetry for s in serial]

    @needs_core
    @pytest.mark.parametrize("radix,dimensions", [(64, 1), (32, 2)])
    def test_large_radix_runs_on_core(self, monkeypatch, radix, dimensions):
        # Shapes with dimensions * radix > 62: routes are walked hop by
        # hop, so no route length bounds what the core holds.
        config = SimulationConfig(
            radix=radix, dimensions=dimensions, contexts=1,
            warmup_network_cycles=100, measure_network_cycles=300,
        )
        programs = build_programs(
            torus_neighbor_graph(radix, dimensions), 1,
            config.compute_cycles, config.compute_jitter,
        )
        mapping = random_mapping(config.node_count, seed=radix)
        seeds = (config.seed,)
        assert batchcore.fits(dimensions, radix)
        built = count_batch_machines(monkeypatch)
        batched = run_batch(config, mapping, programs, seeds)
        assert len(built) == 1
        assert_parity(
            batched, serial_summaries(config, mapping, programs, seeds)
        )

    @needs_core
    def test_fits_agrees_with_core(self):
        ffi, lib = batchcore.load()
        # Shapes that fit stay small except the one just under 2**20
        # nodes (about 120 MB, freed at once); refused ones allocate
        # nothing.
        shapes = [
            (1, 2), (1, 64), (1, 4096), (1, (1 << 20) - 1), (1, 1 << 20),
            (2, 32), (2, 64), (2, 1024), (3, 16), (3, 102), (4, 32),
            (8, 2), (8, 6), (9, 2),
        ]
        for dimensions, radix in shapes:
            core = lib.bc_create(
                1, radix**dimensions, dimensions, radix,
                1, 1, 1, 1, 1, 1, 1, 1,
            )
            assert (core != ffi.NULL) == batchcore.fits(dimensions, radix), (
                dimensions, radix,
            )
            lib.bc_destroy(core)
        config = SimulationConfig(radix=1 << 20, dimensions=1, contexts=1)
        with pytest.raises(SimulationError, match="cannot hold"):
            BatchMachine(config, identity_mapping(4), [], (config.seed,))

    def test_batch_machine_rejects_wormhole(self):
        config, mapping, programs = small_setup(switching="wormhole")
        with pytest.raises(SimulationError, match="cut_through"):
            BatchMachine(config, mapping, programs, (config.seed,))


class _NeighborSubclass(NeighborExchangeProgram):
    """A trivial subclass: the core matches program types exactly."""


def _program_family(kind, threads, contexts, compute, jitter):
    """``programs[instance][thread]`` of one traffic family."""
    if kind == "uniform":
        return uniform_random_graph_programs(
            ring_graph(threads), contexts, compute, jitter
        )
    if kind in ("neighbor", "subclass"):
        programs = build_programs(
            ring_graph(threads), contexts, compute, jitter
        )
        if kind == "subclass":
            programs = [
                [
                    _NeighborSubclass(
                        instance=p.instance, thread=p.thread,
                        neighbors=p.neighbors,
                        compute_cycles_mean=p.compute_cycles_mean,
                        compute_jitter=p.compute_jitter,
                    )
                    for p in row
                ]
                for row in programs
            ]
        return programs

    def make(instance, thread):
        if kind == "permutation":
            return NeighborExchangeProgram(
                instance=instance, thread=thread,
                neighbors=((thread + threads // 2) % threads,) * 4,
                compute_cycles_mean=compute, compute_jitter=jitter,
            )
        if kind == "hotspot":
            return HotSpotProgram(
                instance=instance, thread=thread, threads=threads,
                hot_thread=0, hot_fraction=0.3,
                compute_cycles_mean=compute, compute_jitter=jitter,
            )
        return ScriptedProgram.random_script(
            instance=instance, thread=thread, threads=threads, length=12,
            seed=5,
        )

    return [
        [make(instance, thread) for thread in range(threads)]
        for instance in range(contexts)
    ]


class TestProgramSelection:
    """The core runs neighbor-exchange programs (permutation traffic is
    one with a single partner repeated) and uniform-random programs,
    matched by exact type; every other program runs serially, quietly."""

    @pytest.mark.parametrize("kind", ["hotspot", "scripted", "subclass"])
    def test_other_programs_run_serially_and_quietly(self, kind, monkeypatch):
        config, mapping, _ = small_setup()
        programs = _program_family(
            kind, config.node_count, config.contexts,
            config.compute_cycles, config.compute_jitter,
        )
        seeds = (config.seed, config.seed + 1)
        built = count_batch_machines(monkeypatch)
        counter = obs.REGISTRY.counter("batch.fallback")
        before = counter.value
        with warnings.catch_warnings():
            warnings.simplefilter("error", BatchFallbackWarning)
            batched = run_batch(config, mapping, programs, seeds)
        assert built == []
        assert counter.value == before
        assert_parity(
            batched, serial_summaries(config, mapping, programs, seeds)
        )

    @needs_core
    @pytest.mark.parametrize("kind", ["neighbor", "permutation", "uniform"])
    def test_core_programs_build_a_batch_machine(self, kind, monkeypatch):
        config, mapping, _ = small_setup()
        programs = _program_family(
            kind, config.node_count, config.contexts,
            config.compute_cycles, config.compute_jitter,
        )
        seeds = (config.seed, config.seed + 1)
        built = count_batch_machines(monkeypatch)
        batched = run_batch(config, mapping, programs, seeds)
        assert len(built) == 1
        assert_parity(
            batched, serial_summaries(config, mapping, programs, seeds)
        )

    @needs_core
    def test_batch_machine_rejects_other_programs(self):
        config, mapping, _ = small_setup()
        programs = _program_family(
            "hotspot", config.node_count, config.contexts,
            config.compute_cycles, config.compute_jitter,
        )
        with pytest.raises(SimulationError, match="programs only"):
            BatchMachine(config, mapping, programs, (config.seed,))


class TestCoreUnavailable:
    """A core that fails to load is the one loud fallback."""

    def test_falls_back_to_serial_loudly(self, monkeypatch):
        monkeypatch.setattr(batchcore, "load", lambda: None)
        config, mapping, programs = small_setup()
        seeds = (config.seed, config.seed + 1)
        counter = obs.REGISTRY.counter("batch.fallback")
        before = counter.value
        with pytest.warns(BatchFallbackWarning, match="running the batch"):
            batched = run_batch(config, mapping, programs, seeds)
        assert counter.value == before + 1
        assert_parity(
            batched, serial_summaries(config, mapping, programs, seeds)
        )

    def test_batch_machine_raises_without_core(self, monkeypatch):
        monkeypatch.setattr(batchcore, "load", lambda: None)
        config, mapping, programs = small_setup()
        with pytest.raises(SimulationError, match="unavailable"):
            BatchMachine(config, mapping, programs, (config.seed,))


def test_message_flits_match_the_core():
    # _batchcore.c hard-codes FLITS_OF in MessageKind declaration order:
    # 8 flits for control messages, 24 for DATA_REPLY and WRITEBACK.
    assert [_FLITS_BY_KIND[kind] for kind in MessageKind] == [
        8, 8, 24, 8, 8, 8, 8, 24
    ]
    assert list(MessageKind)[2] is MessageKind.DATA_REPLY
    assert list(MessageKind)[7] is MessageKind.WRITEBACK


@needs_core
def test_every_declared_function_resolves_in_the_core():
    # cffi's ABI mode resolves a CDEF symbol only when it is first used,
    # so a declaration left behind by a deletion in _batchcore.c would
    # otherwise go unnoticed until someone calls it.
    _, lib = batchcore.load()
    names = re.findall(r"(\w+)\s*\(", batchcore.CDEF)
    assert "bc_advance" in names
    for name in names:
        assert callable(getattr(lib, name)), name


class TestValidation:
    def test_empty_seed_list_rejected(self):
        config, mapping, programs = small_setup()
        with pytest.raises(ParameterError):
            BatchMachine(config, mapping, programs, ())

    @needs_core
    def test_run_is_single_use(self):
        config, mapping, programs = small_setup()
        machine = BatchMachine(config, mapping, programs, (config.seed,))
        machine.run()
        with pytest.raises(SimulationError):
            machine.run()

    @needs_core
    @pytest.mark.parametrize("switching", ["cut_through", "wormhole"])
    def test_negative_warmup_is_rejected_by_core_and_serial_machines(
        self, switching
    ):
        config, mapping, programs = small_setup(switching=switching)
        message = "warmup must be >= 0, got -1"
        with pytest.raises(ParameterError, match=message):
            run_batch(config, mapping, programs, [7], warmup=-1)
        with pytest.raises(ParameterError, match=message):
            Machine(config, mapping, programs).run(warmup=-1)
        with pytest.raises(ParameterError, match="measure must be positive"):
            run_batch(config, mapping, programs, [7], measure=0)


class TestSeeds:
    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_bad_seed_is_a_parameter_error(self, seed):
        config, mapping, programs = small_setup()
        with pytest.raises(ParameterError, match="non-negative integer"):
            Machine(config.with_seed(seed), mapping, programs)
        with pytest.raises(ParameterError, match="non-negative integer"):
            run_batch(config, mapping, programs, [config.seed, seed])

    def test_bad_seed_is_a_parameter_error_on_serial_batches(self):
        config, mapping, programs = small_setup(switching="wormhole")
        with pytest.raises(ParameterError, match="non-negative integer"):
            run_batch(config, mapping, programs, [-3])

    @needs_core
    def test_streams_need_no_seed_sequence_spawn(self, monkeypatch):
        # The per-node states come from node_states' vectorized
        # derivation; no engine may fall back to numpy's N-child spawn.
        class NoSpawn(np.random.SeedSequence):
            def spawn(self, n_children):
                raise AssertionError("SeedSequence.spawn was called")

        config, mapping, programs = small_setup(radix=8)
        seeds = (config.seed, config.seed + 1)
        monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
        serial = serial_summaries(config, mapping, programs, seeds)
        batched = BatchMachine(config, mapping, programs, seeds).run()
        assert_parity(batched, serial)


@needs_core
def test_out_of_range_thread_is_a_mapping_error():
    config, mapping, programs = small_setup()
    programs = copy.deepcopy(programs)
    programs[0][3].neighbors = [1, config.node_count]
    with pytest.raises(MappingError):
        BatchMachine(config, mapping, programs, (config.seed,))
