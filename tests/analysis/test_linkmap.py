"""Tests for per-link utilization maps."""

import pytest

from repro.analysis.linkmap import (
    link_utilization,
    link_utilization_from_telemetry,
    render_link_heatmap,
)
from repro.errors import ParameterError
from repro.mapping.strategies import identity_mapping, random_mapping
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.sim.telemetry import TelemetryConfig, run_probe
from repro.sim.wormhole import WormholeFabric
from repro.topology.torus import Torus
from repro.topology.graphs import torus_neighbor_graph
from repro.workload.synthetic import build_programs


def run_machine(mapping):
    config = SimulationConfig(
        radix=4, dimensions=2, contexts=1,
        warmup_network_cycles=500, measure_network_cycles=3000,
    )
    graph = torus_neighbor_graph(4, 2)
    programs = build_programs(graph, 1, config.compute_cycles, 0.5)
    machine = Machine(config, mapping, programs)
    machine.run()
    return machine


class TestLinkUtilization:
    def test_every_physical_link_reported(self):
        torus = Torus(radix=4, dimensions=2)
        util = link_utilization({}, torus, window_cycles=100)
        # 16 nodes x 2 dims x 2 directions.
        assert len(util.per_link) == 64
        assert util.peak == 0.0

    def test_values_scale_with_window(self):
        torus = Torus(radix=4, dimensions=2)
        flits = {(0, 0, 1): 50}
        short = link_utilization(flits, torus, window_cycles=100)
        long = link_utilization(flits, torus, window_cycles=200)
        assert short.per_link[(0, 0, 1)] == pytest.approx(0.5)
        assert long.per_link[(0, 0, 1)] == pytest.approx(0.25)

    def test_baseline_subtracted(self):
        torus = Torus(radix=4, dimensions=2)
        util = link_utilization(
            {(0, 0, 1): 70}, torus, 100, baseline_flits={(0, 0, 1): 20}
        )
        assert util.per_link[(0, 0, 1)] == pytest.approx(0.5)

    def test_rejects_bad_window(self):
        with pytest.raises(ParameterError):
            link_utilization({}, Torus(4, 2), 0)

    def test_hot_factor_from_simulation(self):
        # Ideal neighbor traffic is perfectly uniform across links;
        # a random permutation concentrates load.
        ideal = run_machine(identity_mapping(16))
        scrambled = run_machine(random_mapping(16, seed=5))
        torus = Torus(4, 2)
        ideal_util = link_utilization(
            ideal.fabric.link_flits, torus, ideal.stats.window_cycles,
            baseline_flits=ideal.stats.link_flits_at_reset,
        )
        scrambled_util = link_utilization(
            scrambled.fabric.link_flits, torus,
            scrambled.stats.window_cycles,
            baseline_flits=scrambled.stats.link_flits_at_reset,
        )
        assert ideal_util.hot_factor < scrambled_util.hot_factor
        assert ideal_util.hot_factor == pytest.approx(1.0, abs=0.25)

    def test_hottest_ranking(self):
        torus = Torus(radix=4, dimensions=2)
        flits = {(0, 0, 1): 100, (5, 1, -1): 50, (9, 0, 1): 10}
        util = link_utilization(flits, torus, 100)
        top = util.hottest(2)
        assert top[0][0] == (0, 0, 1)
        assert top[1][0] == (5, 1, -1)


class TestHeatmapRendering:
    def test_grid_dimensions(self):
        torus = Torus(radix=4, dimensions=2)
        util = link_utilization({(0, 0, 1): 100}, torus, 100)
        text = render_link_heatmap(util, torus)
        assert "[+x]" in text and "[-y]" in text
        # Each of the four direction grids has 4 rows of 4 cells.
        grid_lines = [
            l for l in text.splitlines()
            if l and not l.startswith(("[", "link"))
        ]
        assert len(grid_lines) == 16
        assert all(len(l) == 4 for l in grid_lines)

    def test_hot_link_shaded_darkest(self):
        torus = Torus(radix=4, dimensions=2)
        util = link_utilization({(0, 0, 1): 100}, torus, 100)
        text = render_link_heatmap(util, torus)
        assert "@" in text

    def test_one_dimensional_torus(self):
        torus = Torus(radix=8, dimensions=1)
        util = link_utilization({(3, 0, 1): 10}, torus, 100)
        text = render_link_heatmap(util, torus)
        assert "[+x]" in text

    def test_rejects_high_dimensions(self):
        torus = Torus(radix=3, dimensions=3)
        util = link_utilization({}, torus, 100)
        with pytest.raises(ParameterError):
            render_link_heatmap(util, torus)


class TestTelemetryLinkmap:
    @staticmethod
    def probe():
        return run_probe(
            "hotspot50", radix=4, cycles=200,
            telemetry=TelemetryConfig(epoch_cycles=32),
        )

    def test_covers_every_physical_link(self):
        result = self.probe()
        torus = Torus(radix=4, dimensions=2)
        util = link_utilization_from_telemetry(result.snapshot, torus)
        assert len(util.per_link) == 16 * 4  # node * (2 dims x 2 dirs)
        assert util.window_cycles == result.total_cycles
        measured = result.summary.link_utilization()
        for key, value in measured.items():
            assert util.per_link[key] == pytest.approx(value)

    def test_accepts_summary_wrapper(self):
        result = self.probe()
        torus = Torus(radix=4, dimensions=2)
        from_summary = link_utilization_from_telemetry(result.summary, torus)
        from_dict = link_utilization_from_telemetry(result.snapshot, torus)
        assert from_summary.per_link == from_dict.per_link

    def test_heatmap_renders_from_telemetry(self):
        result = self.probe()
        torus = Torus(radix=4, dimensions=2)
        util = link_utilization_from_telemetry(result.snapshot, torus)
        text = render_link_heatmap(util, torus)
        assert "[+x]" in text and "hot factor" in text
        assert "@" in text  # some link is the peak

    def test_rejects_empty_window(self):
        torus = Torus(radix=4, dimensions=2)
        fabric = WormholeFabric(torus, on_delivery=lambda worm: None)
        telemetry = fabric.attach_telemetry(TelemetryConfig())
        telemetry.finalize(0)
        with pytest.raises(ParameterError, match="empty"):
            link_utilization_from_telemetry(telemetry.snapshot(), torus)

    def test_rejects_geometry_mismatch(self):
        result = self.probe()
        with pytest.raises(ParameterError, match="geometry"):
            link_utilization_from_telemetry(
                result.snapshot, Torus(radix=8, dimensions=2)
            )
