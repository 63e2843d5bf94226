"""Tests for the sweep utilities."""

import numpy as np
import pytest

from repro.core.application import ApplicationModel
from repro.core.network import TorusNetworkModel
from repro.core.sweeps import gain_curve, sweep_network_slowdowns
from repro.core.system import SystemModel
from repro.core.transaction import TransactionModel
from repro.units import ALEWIFE_CLOCKS


@pytest.fixture
def system():
    return SystemModel(
        application=ApplicationModel(grain=8.0, contexts=1.0, switch_time=11.0),
        transaction=TransactionModel(
            critical_messages=2.0, messages_per_transaction=3.2, fixed_overhead=40.0
        ),
        network=TorusNetworkModel(
            dimensions=2, message_size=12.0, node_channel_contention=False
        ),
        clocks=ALEWIFE_CLOCKS,
    )


class TestGainCurve:
    def test_curve_arrays_aligned(self, system):
        curve = gain_curve(system, [100, 1000, 10000], label="p=1")
        assert curve.label == "p=1"
        assert list(curve.sizes) == [100, 1000, 10000]
        assert len(curve.gains) == 3

    def test_gains_increase_with_size(self, system):
        curve = gain_curve(system, [100, 1000, 10000, 100000])
        assert np.all(np.diff(curve.gains) > 0)


class TestSlowdownSweep:
    def test_one_sample_per_factor(self, system):
        samples = sweep_network_slowdowns(system, [1, 2, 4], sizes=[1000])
        assert [s.slowdown for s in samples] == [1.0, 2.0, 4.0]

    def test_network_speedups_recorded(self, system):
        samples = sweep_network_slowdowns(system, [1, 2], sizes=[1000])
        assert samples[0].network_speedup == pytest.approx(2.0)
        assert samples[1].network_speedup == pytest.approx(1.0)

    def test_gains_rise_with_slowdown(self, system):
        # Table 1's trend.
        samples = sweep_network_slowdowns(system, [1, 2, 4, 8], sizes=[1000])
        gains = [s.gains_by_size[1000.0] for s in samples]
        assert all(b > a for a, b in zip(gains, gains[1:]))


class TestSlowdownSampleImmutability:
    @pytest.fixture
    def sample(self, system):
        return sweep_network_slowdowns(
            system, [1.0, 2.0], sizes=[1000.0, 1e6]
        )[0]

    def test_gains_by_size_is_a_mapping(self, sample):
        assert sample.gains_by_size[1000.0] > 0
        assert set(sample.gains_by_size) == {1000.0, 1e6}
        assert len(sample.gains_by_size) == 2

    def test_gains_by_size_rejects_mutation(self, sample):
        with pytest.raises(TypeError):
            sample.gains_by_size[1000.0] = 2.0

    def test_sample_is_hashable(self, sample):
        assert isinstance(hash(sample), int)
        assert sample in {sample}

    def test_equal_samples_hash_equal(self, system):
        a = sweep_network_slowdowns(system, [2.0], sizes=[1000.0])[0]
        b = sweep_network_slowdowns(system, [2.0], sizes=[1000.0])[0]
        assert a == b
        assert hash(a) == hash(b)

    def test_accepts_plain_dict_input(self):
        from repro.core.sweeps import SlowdownSample

        sample = SlowdownSample(
            slowdown=2.0,
            network_speedup=0.5,
            gains_by_size={1000.0: 3.0},
        )
        assert sample.gains_by_size[1000.0] == 3.0
        with pytest.raises(TypeError):
            sample.gains_by_size[1000.0] = 9.0
