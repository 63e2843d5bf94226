"""Tests for the Agarwal torus network model (paper Section 2.4)."""

import pytest

from repro.core.network import TorusNetworkModel
from repro.errors import ParameterError, SaturationError


@pytest.fixture
def alewife_net():
    return TorusNetworkModel(dimensions=2, message_size=12.0)


@pytest.fixture
def base_net():
    # Agarwal's model without the paper's extensions.
    return TorusNetworkModel(
        dimensions=2, message_size=12.0, clamp_local=False,
        node_channel_contention=False,
    )


class TestConstruction:
    def test_rejects_zero_dimensions(self):
        with pytest.raises(ParameterError):
            TorusNetworkModel(dimensions=0)

    @pytest.mark.parametrize("bad", [0.0, -12.0])
    def test_rejects_nonpositive_message_size(self, bad):
        with pytest.raises(ParameterError):
            TorusNetworkModel(message_size=bad)


class TestGeometry:
    def test_per_dimension_distance_eq13(self, alewife_net):
        assert alewife_net.per_dimension_distance(8.0) == pytest.approx(4.0)

    def test_per_dimension_rejects_nonpositive_distance(self, alewife_net):
        with pytest.raises(ParameterError):
            alewife_net.per_dimension_distance(0.0)

    def test_contention_geometry_vanishes_at_unit_kd(self, alewife_net):
        # (k_d - 1)/k_d^2 is zero at k_d = 1 (d = n).
        assert alewife_net.contention_geometry(2.0) == 0.0

    def test_contention_geometry_positive_beyond_unit_kd(self, alewife_net):
        assert alewife_net.contention_geometry(8.0) > 0.0

    def test_contention_geometry_formula(self, alewife_net):
        # k_d = 4: (3/16) * (3/2) = 0.28125.
        assert alewife_net.contention_geometry(8.0) == pytest.approx(0.28125)


class TestUtilization:
    def test_eq10(self, alewife_net):
        # rho = r_m * B * k_d / 2 = 0.01 * 12 * 4 / 2 = 0.24.
        assert alewife_net.channel_utilization(0.01, 8.0) == pytest.approx(0.24)

    def test_zero_rate_means_zero_utilization(self, alewife_net):
        assert alewife_net.channel_utilization(0.0, 8.0) == 0.0

    def test_rejects_negative_rate(self, alewife_net):
        with pytest.raises(ParameterError):
            alewife_net.channel_utilization(-0.1, 8.0)

    def test_saturation_rate_reaches_unit_utilization(self, alewife_net):
        rate = alewife_net.saturation_rate(8.0)
        assert alewife_net.channel_utilization(rate, 8.0) == pytest.approx(1.0)

    def test_max_rate_includes_node_channel_when_enabled(self, alewife_net):
        # At short distances the node channel (r_m * B < 1) binds first.
        assert alewife_net.max_rate(1.0) == pytest.approx(1.0 / 12.0)

    def test_max_rate_is_mesh_limit_without_node_channels(self, base_net):
        assert base_net.max_rate(1.0) == pytest.approx(
            base_net.saturation_rate(1.0)
        )


class TestPerHopLatency:
    def test_unloaded_hop_costs_one_cycle(self, alewife_net):
        assert alewife_net.per_hop_latency(0.0, 8.0) == pytest.approx(1.0)

    def test_eq14_at_known_point(self, alewife_net):
        # rho = 0.24, geometry = 0.28125:
        # T_h = 1 + (0.24*12/0.76) * 0.28125.
        expected = 1.0 + (0.24 * 12.0 / 0.76) * 0.28125
        assert alewife_net.per_hop_latency(0.01, 8.0) == pytest.approx(expected)

    def test_clamp_for_local_traffic(self, alewife_net):
        # d < n => k_d < 1 => T_h = 1 regardless of load.
        assert alewife_net.per_hop_latency(0.05, 1.0) == pytest.approx(1.0)

    def test_monotone_in_load(self, alewife_net):
        latencies = [
            alewife_net.per_hop_latency(r, 8.0) for r in (0.001, 0.01, 0.02, 0.03)
        ]
        assert all(b > a for a, b in zip(latencies, latencies[1:]))

    def test_diverges_at_saturation(self, alewife_net):
        rate = alewife_net.saturation_rate(8.0)
        with pytest.raises(SaturationError):
            alewife_net.per_hop_latency(rate, 8.0)


class TestNodeChannelDelay:
    def test_disabled_extension_contributes_nothing(self, base_net):
        assert base_net.node_channel_delay(0.05) == 0.0

    def test_mdl_queueing_formula(self, alewife_net):
        # rho_c = 0.025*12 = 0.3; per channel 0.3*12/(2*0.7); two channels.
        expected = 2.0 * (0.3 * 12.0 / (2.0 * 0.7))
        assert alewife_net.node_channel_delay(0.025) == pytest.approx(expected)

    def test_paper_magnitude_two_to_five_cycles(self, alewife_net):
        # Section 2.4: at the 64-node experiments' rates this factor added
        # two to five network cycles.  Typical measured inter-message
        # times were around 45-80 network cycles (Figure 3's axis range).
        low = alewife_net.node_channel_delay(1.0 / 80.0)
        high = alewife_net.node_channel_delay(1.0 / 45.0)
        assert 1.5 < low < high < 5.5

    def test_saturates_at_channel_capacity(self, alewife_net):
        with pytest.raises(SaturationError):
            alewife_net.node_channel_delay(1.0 / 12.0)


class TestMessageLatency:
    def test_zero_load_latency_is_d_plus_b(self, alewife_net):
        assert alewife_net.zero_load_latency(8.0) == pytest.approx(20.0)

    def test_eq11_structure(self, base_net):
        # T_m = d * T_h + B.
        rate, distance = 0.01, 8.0
        t_h = base_net.per_hop_latency(rate, distance)
        assert base_net.message_latency(rate, distance) == pytest.approx(
            distance * t_h + 12.0
        )

    def test_extensions_add_node_channel_delay(self, alewife_net, base_net):
        rate, distance = 0.01, 8.0
        assert alewife_net.message_latency(rate, distance) == pytest.approx(
            base_net.message_latency(rate, distance)
            + alewife_net.node_channel_delay(rate)
        )

    def test_latency_increases_with_distance(self, alewife_net):
        low = alewife_net.message_latency(0.01, 4.0)
        high = alewife_net.message_latency(0.01, 8.0)
        assert high > low


class TestVariants:
    def test_without_extensions(self, alewife_net):
        base = alewife_net.without_extensions()
        assert not base.clamp_local
        assert not base.node_channel_contention
        assert base.message_size == alewife_net.message_size

    def test_with_dimensions(self, alewife_net):
        three_d = alewife_net.with_dimensions(3)
        assert three_d.dimensions == 3
        assert three_d.message_size == alewife_net.message_size

    def test_describe_reports_consistent_quantities(self, alewife_net):
        info = alewife_net.describe(0.01, 8.0)
        assert info["k_d"] == pytest.approx(4.0)
        assert info["rho"] == pytest.approx(0.24)
        assert info["T_m"] == pytest.approx(
            alewife_net.message_latency(0.01, 8.0)
        )
