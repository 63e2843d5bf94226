"""Tests for the multi-seed replication harness."""

import copy
import math

import pytest

from repro import obs
from repro.errors import ParameterError
from repro.mapping.strategies import random_mapping
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.sim.replicate import (
    aggregate_summaries,
    default_seeds,
    run_replications,
)
from repro.sim.telemetry import LATENCY_METRIC, TelemetryConfig
from repro.topology.graphs import torus_neighbor_graph
from repro.workload.synthetic import build_programs


def small_setup(radix=4, contexts=2):
    config = SimulationConfig(
        radix=radix, dimensions=2, contexts=contexts,
        warmup_network_cycles=300, measure_network_cycles=1200,
    )
    graph = torus_neighbor_graph(radix, 2)
    programs = build_programs(
        graph, contexts, config.compute_cycles, config.compute_jitter
    )
    mapping = random_mapping(config.node_count, seed=radix)
    return config, mapping, programs


class TestSeeds:
    def test_default_seeds_enumerate_from_root(self):
        assert default_seeds(1992, 3) == (1992, 1993, 1994)

    def test_default_seeds_reject_empty(self):
        with pytest.raises(ParameterError):
            default_seeds(0, 0)

    def test_empty_seed_list_rejected(self):
        config, mapping, programs = small_setup()
        with pytest.raises(ParameterError):
            run_replications(config, mapping, programs, seeds=())


class TestAggregation:
    def test_aggregate_matches_hand_computation(self):
        config, mapping, programs = small_setup()
        result = run_replications(
            config, mapping, programs, default_seeds(config.seed, 3)
        )
        values = [s.mean_message_latency for s in result.summaries]
        mean = sum(values) / 3
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / 2)
        aggregate = result.aggregates["mean_message_latency"]
        assert aggregate.mean == pytest.approx(mean)
        assert aggregate.std == pytest.approx(std)
        assert aggregate.ci95 == pytest.approx(1.96 * std / math.sqrt(3))
        assert aggregate.n == 3
        assert aggregate.values == tuple(values)

    def test_single_replication_has_zero_spread(self):
        config, mapping, programs = small_setup()
        result = run_replications(
            config, mapping, programs, default_seeds(config.seed, 1)
        )
        for aggregate in result.aggregates.values():
            assert aggregate.std == 0.0
            assert aggregate.ci95 == 0.0
            assert aggregate.n == 1

    def test_aggregate_summaries_rejects_empty(self):
        with pytest.raises(ParameterError):
            aggregate_summaries([])


class TestDeterminism:
    def test_first_seed_is_the_single_run(self):
        # default_seeds starts at the config's own seed, so replication
        # zero reproduces the old single-seed run exactly — adding error
        # bars never moves existing point estimates.
        config, mapping, programs = small_setup()
        single = Machine(config, mapping, copy.deepcopy(programs)).run()
        result = run_replications(
            config, mapping, programs, default_seeds(config.seed, 2)
        )
        assert result.summaries[0].as_dict() == single.as_dict()

    def test_jobs_do_not_change_results(self):
        config, mapping, programs = small_setup()
        seeds = default_seeds(config.seed, 3)
        serial = run_replications(config, mapping, programs, seeds, jobs=1)
        pooled = run_replications(config, mapping, programs, seeds, jobs=3)
        assert [s.as_dict() for s in serial.summaries] == [
            s.as_dict() for s in pooled.summaries
        ]
        assert serial.aggregates == pooled.aggregates

    def test_distinct_seeds_vary_the_measurement(self):
        config, mapping, programs = small_setup()
        result = run_replications(
            config, mapping, programs, default_seeds(config.seed, 3)
        )
        latencies = {s.mean_message_latency for s in result.summaries}
        assert len(latencies) > 1  # different streams, different runs

    def test_rng_provenance_recorded(self):
        config, mapping, programs = small_setup()
        seeds = default_seeds(config.seed, 2)
        result = run_replications(config, mapping, programs, seeds)
        assert result.rng["seeds"] == list(seeds)
        assert "SeedSequence" in result.rng["scheme"]


class TestTelemetry:
    def test_snapshots_empty_when_telemetry_off(self):
        config, mapping, programs = small_setup()
        result = run_replications(
            config, mapping, programs, default_seeds(config.seed, 2)
        )
        assert result.telemetry_snapshots() == []
        assert result.merged_telemetry() is None

    def test_each_replication_carries_a_snapshot(self):
        config, mapping, programs = small_setup()
        result = run_replications(
            config, mapping, programs, default_seeds(config.seed, 2),
            telemetry=TelemetryConfig(epoch_cycles=128),
        )
        snapshots = result.telemetry_snapshots()
        assert len(snapshots) == 2
        merged = result.merged_telemetry()
        assert merged["delivered"] == sum(s["delivered"] for s in snapshots)
        assert merged["total_cycles"] == sum(
            s["total_cycles"] for s in snapshots
        )

    def test_telemetry_does_not_change_measurements(self):
        config, mapping, programs = small_setup()
        seeds = default_seeds(config.seed, 2)
        bare = run_replications(config, mapping, programs, seeds)
        instrumented = run_replications(
            config, mapping, programs, seeds,
            telemetry=TelemetryConfig(epoch_cycles=128),
        )
        assert [s.as_dict() for s in bare.summaries] == [
            s.as_dict() for s in instrumented.summaries
        ]

    def test_jobs_do_not_change_merged_telemetry(self):
        # Satellite regression: the merged snapshot and the registry's
        # latency histogram must be identical whether the replications
        # ran serially or fanned out over pool workers (whose histogram
        # state ships back on the payload).
        config, mapping, programs = small_setup()
        seeds = default_seeds(config.seed, 2)
        telemetry = TelemetryConfig(epoch_cycles=128)
        enabled_before = obs.is_enabled()
        obs.enable(fresh=True)
        obs.REGISTRY.reset()
        try:
            serial = run_replications(
                config, mapping, programs, seeds, jobs=1, telemetry=telemetry
            )
            serial_histogram = obs.REGISTRY.get(LATENCY_METRIC).as_dict()
            obs.reset()
            obs.REGISTRY.reset()
            pooled = run_replications(
                config, mapping, programs, seeds, jobs=2, telemetry=telemetry
            )
            pooled_histogram = obs.REGISTRY.get(LATENCY_METRIC).as_dict()
        finally:
            obs.reset()
            obs.REGISTRY.reset()
            if not enabled_before:
                obs.disable()
        assert serial.merged_telemetry() == pooled.merged_telemetry()
        assert serial_histogram == pooled_histogram
        assert serial_histogram["count"] > 0


class TestBatchedReplication:
    """The CI-retained batch parity contract (see ISSUE 10).

    ``batch=R`` must be invisible in the results: same per-seed
    summaries, same aggregates, same merged telemetry as the serial
    path, with any chunk remainder and any jobs level.
    """

    def test_batched_matches_serial_per_seed(self):
        config, mapping, programs = small_setup()
        seeds = default_seeds(config.seed, 5)
        serial = run_replications(config, mapping, programs, seeds)
        # batch=2 over 5 seeds exercises the remainder chunk too.
        batched = run_replications(
            config, mapping, programs, seeds, batch=2
        )
        assert [s.as_dict() for s in batched.summaries] == [
            s.as_dict() for s in serial.summaries
        ]
        assert batched.aggregates == serial.aggregates
        assert batched.rng == serial.rng

    def test_batch_composes_with_pool_jobs(self):
        config, mapping, programs = small_setup()
        seeds = default_seeds(config.seed, 4)
        serial = run_replications(config, mapping, programs, seeds)
        batched = run_replications(
            config, mapping, programs, seeds, jobs=2, batch=2
        )
        assert [s.as_dict() for s in batched.summaries] == [
            s.as_dict() for s in serial.summaries
        ]

    def test_batched_telemetry_merges_identically(self):
        # Satellite regression: per-rep snapshots sliced out of a batch
        # run must merge to exactly the serial replications' result.
        config, mapping, programs = small_setup()
        seeds = default_seeds(config.seed, 3)
        telemetry = TelemetryConfig(epoch_cycles=128)
        serial = run_replications(
            config, mapping, programs, seeds, telemetry=telemetry
        )
        batched = run_replications(
            config, mapping, programs, seeds, telemetry=telemetry, batch=3
        )
        assert len(batched.telemetry_snapshots()) == 3
        assert batched.telemetry_snapshots() == serial.telemetry_snapshots()
        assert batched.merged_telemetry() == serial.merged_telemetry()

    def test_batch_validation(self):
        config, mapping, programs = small_setup()
        seeds = default_seeds(config.seed, 2)
        with pytest.raises(ParameterError, match="batch must be >= 1"):
            run_replications(config, mapping, programs, seeds, batch=0)
        with pytest.raises(ParameterError, match="exceeds the replication"):
            run_replications(config, mapping, programs, seeds, batch=3)

    def test_wormhole_batch_matches_serial(self):
        config, mapping, programs = small_setup()
        config = SimulationConfig(
            radix=4, dimensions=2, contexts=2, switching="wormhole",
            warmup_network_cycles=300, measure_network_cycles=1200,
        )
        seeds = default_seeds(config.seed, 2)
        serial = run_replications(config, mapping, programs, seeds)
        batched = run_replications(
            config, mapping, programs, seeds, batch=2
        )
        assert [s.as_dict() for s in batched.summaries] == [
            s.as_dict() for s in serial.summaries
        ]


class TestCrossProcessDeterminism:
    """Worker processes must be invisible in the results.

    Same seeds through fork workers == spawn workers == the serial
    path, bit for bit.  A worker serves several tasks from one payload,
    so any leaked per-run state (the programs' cursors, a stale obs
    buffer) would show up here as a divergence.
    """

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_workers_match_serial(self, method, monkeypatch):
        import multiprocessing

        from repro.core import pool

        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} on this platform")
        monkeypatch.setattr(
            pool, "_context", lambda: multiprocessing.get_context(method)
        )
        config, mapping, programs = small_setup()
        seeds = default_seeds(config.seed, 3)
        serial = run_replications(config, mapping, programs, seeds, jobs=1)
        pooled = run_replications(config, mapping, programs, seeds, jobs=2)
        assert [s.as_dict() for s in pooled.summaries] == [
            s.as_dict() for s in serial.summaries
        ]
        assert serial.aggregates == pooled.aggregates

    def test_jobs_one_never_starts_a_process(self, monkeypatch):
        from repro.core import pool

        def no_processes(*args, **kwargs):
            raise AssertionError("jobs=1 must not start a process")

        monkeypatch.setattr(pool, "ProcessPoolExecutor", no_processes)
        config, mapping, programs = small_setup()
        seeds = default_seeds(config.seed, 2)
        for batch in (1, 2):
            result = run_replications(
                config, mapping, programs, seeds, jobs=1, batch=batch
            )
            assert len(result.summaries) == 2
