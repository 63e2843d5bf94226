"""Tests for SimulationConfig validation and derived quantities."""

import pytest

from repro.errors import ParameterError
from repro.sim.config import SWITCH_CYCLES, SimulationConfig


class TestValidation:
    def test_defaults_are_alewife_like(self):
        config = SimulationConfig()
        assert config.radix == 8
        assert config.dimensions == 2
        assert config.network_speedup == 2
        assert SWITCH_CYCLES == 11
        assert config.switching == "cut_through"

    @pytest.mark.parametrize("field,value", [
        ("radix", 1),
        ("dimensions", 0),
        ("network_speedup", 0),
        ("contexts", 0),
        ("compute_cycles", 0),
        ("compute_jitter", 1.0),
        ("compute_jitter", -0.1),
        ("warmup_network_cycles", -1),
        ("measure_network_cycles", 0),
        ("switching", "magic"),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ParameterError):
            SimulationConfig(**{field: value})


class TestDerived:
    def test_node_count(self):
        assert SimulationConfig(radix=4, dimensions=3).node_count == 64

    def test_total_cycles(self):
        config = SimulationConfig(
            warmup_network_cycles=100, measure_network_cycles=200
        )
        assert config.total_network_cycles == 300

    def test_to_network_uses_speedup(self):
        assert SimulationConfig(network_speedup=2).to_network(5) == 10

    def test_with_seed(self):
        assert SimulationConfig().with_seed(7).seed == 7
