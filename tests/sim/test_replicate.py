"""Tests for the multi-seed replication harness."""

import copy
import math

import pytest

from repro import obs
from repro.errors import ParameterError
from repro.mapping.strategies import random_mapping
from repro.sim.config import SimulationConfig
from repro.sim import batchcore
from repro.sim.machine import Machine
from repro.sim.replicate import (
    aggregate_summaries,
    default_seeds,
    run_replications,
)
from repro.sim.telemetry import LATENCY_METRIC, TelemetryConfig, merge_snapshots
from repro.topology.graphs import torus_neighbor_graph
from repro.workload.synthetic import build_programs


def small_setup(radix=4, contexts=2, switching="cut_through"):
    config = SimulationConfig(
        radix=radix, dimensions=2, contexts=contexts, switching=switching,
        warmup_network_cycles=300, measure_network_cycles=1200,
    )
    graph = torus_neighbor_graph(radix, 2)
    programs = build_programs(
        graph, contexts, config.compute_cycles, config.compute_jitter
    )
    mapping = random_mapping(config.node_count, seed=radix)
    return config, mapping, programs


def machine_runs(config, mapping, programs, seeds, telemetry=None):
    """The oracle: one ``Machine(config.with_seed(seed), ...)`` per seed,
    each on its own copy of the programs."""
    summaries = []
    for seed in seeds:
        machine = Machine(
            config.with_seed(seed),
            copy.deepcopy(mapping),
            copy.deepcopy(programs),
        )
        if telemetry is not None:
            machine.attach_telemetry(telemetry)
        summaries.append(machine.run())
    return summaries


def as_dicts(summaries):
    return [summary.as_dict() for summary in summaries]


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
        # Cut-through seeds run as one core pass at any jobs; wormhole
        # seeds run as serial machines, fanned over processes at jobs=3.
        for switching in ("cut_through", "wormhole"):
            config, mapping, programs = small_setup(switching=switching)
            seeds = default_seeds(config.seed, 3)
            want = as_dicts(machine_runs(config, mapping, programs, seeds))
            for jobs in (1, 3):
                result = run_replications(
                    config, mapping, programs, seeds, jobs=jobs
                )
                assert as_dicts(result.summaries) == want

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
        # The merged snapshot and the registry's latency histogram must
        # equal the per-seed machines' whether the replications ran in
        # this process or fanned out over pool workers (whose histogram
        # state ships back on the payload).
        config, mapping, programs = small_setup()
        seeds = default_seeds(config.seed, 2)
        telemetry = TelemetryConfig(epoch_cycles=128)
        enabled_before = obs.is_enabled()
        obs.enable()
        obs.reset()
        obs.REGISTRY.reset()
        try:
            machines = machine_runs(
                config, mapping, programs, seeds, telemetry=telemetry
            )
            want_histogram = obs.REGISTRY.get(LATENCY_METRIC).as_dict()
            results = {}
            for jobs in (1, 2):
                obs.reset()
                obs.REGISTRY.reset()
                result = run_replications(
                    config, mapping, programs, seeds, jobs=jobs,
                    telemetry=telemetry,
                )
                histogram = obs.REGISTRY.get(LATENCY_METRIC).as_dict()
                results[jobs] = (result.merged_telemetry(), histogram)
        finally:
            obs.reset()
            obs.REGISTRY.reset()
            if not enabled_before:
                obs._STATE.enabled = False
        want = (
            merge_snapshots([summary.telemetry for summary in machines]),
            want_histogram,
        )
        assert results[1] == want and results[2] == want
        assert want_histogram["count"] > 0


class TestBatchedReplication:
    """``batch`` caps the seeds per core pass; it must be invisible in
    the results: the same per-seed summaries as one machine per seed,
    with any chunk remainder, any jobs level, and on inputs the core
    does not run."""

    def test_batched_matches_serial_per_seed(self):
        config, mapping, programs = small_setup()
        seeds = default_seeds(config.seed, 5)
        # batch=2 over 5 seeds exercises the remainder chunk too.
        batched = run_replications(
            config, mapping, programs, seeds, batch=2
        )
        assert as_dicts(batched.summaries) == as_dicts(
            machine_runs(config, mapping, programs, seeds)
        )
        assert batched.rng["seeds"] == list(seeds)

    def test_batch_composes_with_pool_jobs(self):
        config, mapping, programs = small_setup()
        seeds = default_seeds(config.seed, 4)
        batched = run_replications(
            config, mapping, programs, seeds, jobs=2, batch=2
        )
        assert as_dicts(batched.summaries) == as_dicts(
            machine_runs(config, mapping, programs, seeds)
        )

    def test_batched_telemetry_merges_identically(self):
        # Telemetry replications run as serial machines; the cap must
        # not change their snapshots.
        config, mapping, programs = small_setup()
        seeds = default_seeds(config.seed, 3)
        telemetry = TelemetryConfig(epoch_cycles=128)
        machines = machine_runs(
            config, mapping, programs, seeds, telemetry=telemetry
        )
        batched = run_replications(
            config, mapping, programs, seeds, telemetry=telemetry, batch=3
        )
        assert batched.telemetry_snapshots() == [
            summary.telemetry for summary in machines
        ]
        assert batched.merged_telemetry() == merge_snapshots(
            [summary.telemetry for summary in machines]
        )

    def test_batch_validation(self):
        config, mapping, programs = small_setup()
        seeds = default_seeds(config.seed, 2)
        with pytest.raises(ParameterError, match="batch must be >= 1"):
            run_replications(config, mapping, programs, seeds, batch=0)
        with pytest.raises(ParameterError, match="exceeds the replication"):
            run_replications(config, mapping, programs, seeds, batch=3)

    def test_wormhole_batch_matches_serial(self):
        config, mapping, programs = small_setup(switching="wormhole")
        seeds = default_seeds(config.seed, 2)
        batched = run_replications(
            config, mapping, programs, seeds, batch=2
        )
        assert as_dicts(batched.summaries) == as_dicts(
            machine_runs(config, mapping, programs, seeds)
        )


def _counting(monkeypatch):
    """Count processes started, serial machines built and
    ``BatchMachine.run`` calls made from here on."""
    from repro.core import pool
    from repro.sim import batch

    counts = {"processes": 0, "machines": 0, "batch_runs": 0}
    executor = pool.ProcessPoolExecutor
    machine_init = Machine.__init__
    batch_run = batch.BatchMachine.run

    def processes(*args, **kwargs):
        counts["processes"] += 1
        return executor(*args, **kwargs)

    def machine(self, *args, **kwargs):
        counts["machines"] += 1
        machine_init(self, *args, **kwargs)

    def batch_machine_run(self, *args, **kwargs):
        counts["batch_runs"] += 1
        return batch_run(self, *args, **kwargs)

    monkeypatch.setattr(pool, "ProcessPoolExecutor", processes)
    monkeypatch.setattr(Machine, "__init__", machine)
    monkeypatch.setattr(batch.BatchMachine, "run", batch_machine_run)
    return counts


class TestCrossProcessDeterminism:
    """Worker processes must be invisible in the results.

    Serial-machine replications (here wormhole) through fork workers ==
    spawn workers == one machine per seed, bit for bit.  A worker serves
    several tasks from one payload, so any leaked per-run state (the
    programs' cursors, a stale obs buffer) would show up here as a
    divergence.
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
        config, mapping, programs = small_setup(switching="wormhole")
        seeds = default_seeds(config.seed, 3)
        counts = _counting(monkeypatch)
        pooled = run_replications(config, mapping, programs, seeds, jobs=2)
        assert counts["processes"] == 1
        assert as_dicts(pooled.summaries) == as_dicts(
            machine_runs(config, mapping, programs, seeds)
        )

    def test_jobs_one_never_starts_a_process(self, monkeypatch):
        from repro.core import pool

        def no_processes(*args, **kwargs):
            raise AssertionError("jobs=1 must not start a process")

        monkeypatch.setattr(pool, "ProcessPoolExecutor", no_processes)
        for switching in ("cut_through", "wormhole"):
            config, mapping, programs = small_setup(switching=switching)
            seeds = default_seeds(config.seed, 2)
            result = run_replications(
                config, mapping, programs, seeds, jobs=1
            )
            assert len(result.summaries) == 2

    @pytest.mark.skipif(
        batchcore.load() is None,
        reason=f"batch core unavailable: {batchcore.load_failure()}",
    )
    def test_core_seeds_run_in_process_whatever_jobs(self, monkeypatch):
        # Compiled work runs on threads: a core-eligible sweep at jobs=2
        # is one core pass in this process, with no serial machine.
        config, mapping, programs = small_setup()
        seeds = default_seeds(config.seed, 3)
        want = as_dicts(machine_runs(config, mapping, programs, seeds))
        counts = _counting(monkeypatch)
        result = run_replications(config, mapping, programs, seeds, jobs=2)
        assert counts == {"processes": 0, "machines": 0, "batch_runs": 1}
        assert as_dicts(result.summaries) == want
