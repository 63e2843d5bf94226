"""Property-based tests for the analytical modeling framework."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.application import ApplicationModel
from repro.core.breakdown import decompose
from repro.core.combined import solve, solve_quadratic
from repro.core.limits import limiting_per_hop_latency
from repro.core.network import TorusNetworkModel
from repro.core.node import NodeModel
from repro.core.transaction import TransactionModel
from repro.units import ClockDomain

grains = st.floats(min_value=1.0, max_value=500.0)
contexts = st.floats(min_value=1.0, max_value=8.0)
switch_times = st.floats(min_value=0.0, max_value=30.0)
latencies = st.floats(min_value=0.0, max_value=5000.0)
sensitivities = st.floats(min_value=0.1, max_value=20.0)
intercepts = st.floats(min_value=0.0, max_value=500.0)
distances = st.floats(min_value=0.1, max_value=300.0)
flit_sizes = st.floats(min_value=1.0, max_value=64.0)
dims = st.integers(min_value=1, max_value=4)
speedups = st.floats(min_value=0.1, max_value=8.0)


class TestApplicationModelProperties:
    @given(grains, contexts, switch_times, latencies)
    def test_curve_inversion_roundtrip(self, grain, p, switch, latency):
        model = ApplicationModel(grain=grain, contexts=p, switch_time=switch)
        assert math.isclose(
            model.transaction_latency(model.issue_time(latency)),
            latency,
            rel_tol=1e-9,
            abs_tol=1e-6,
        )

    @given(grains, contexts, switch_times, latencies, latencies)
    def test_issue_time_monotone_in_latency(self, grain, p, switch, a, b):
        model = ApplicationModel(grain=grain, contexts=p, switch_time=switch)
        low, high = sorted((a, b))
        assert model.issue_time(low) <= model.issue_time(high) + 1e-9


class TestNodeModelProperties:
    @given(grains, contexts, st.floats(min_value=0.5, max_value=8.0),
           st.floats(min_value=0.5, max_value=8.0),
           st.floats(min_value=0.0, max_value=200.0), speedups)
    def test_composition_matches_manual_eq9(
        self, grain, p, c, g, fixed, speedup
    ):
        application = ApplicationModel(grain=grain, contexts=p)
        transaction = TransactionModel(
            critical_messages=c, messages_per_transaction=g,
            fixed_overhead=fixed,
        )
        clocks = ClockDomain(network_speedup=speedup)
        node = NodeModel.from_components(application, transaction, clocks)
        assert math.isclose(node.sensitivity, p * g / c, rel_tol=1e-12)
        assert math.isclose(
            node.intercept, (grain + fixed) * speedup / c, rel_tol=1e-12
        )

    @given(sensitivities, intercepts, st.floats(min_value=1.0, max_value=1e4))
    def test_message_curve_roundtrip(self, s, k, t_m):
        node = NodeModel(sensitivity=s, intercept=k)
        latency = node.message_latency(t_m)
        assert math.isclose(node.message_time(latency), t_m, rel_tol=1e-9)


class TestNetworkModelProperties:
    @given(flit_sizes, dims, distances,
           st.floats(min_value=0.0, max_value=0.95))
    def test_per_hop_latency_at_least_one(self, flits, n, d, load):
        network = TorusNetworkModel(dimensions=n, message_size=flits)
        rate = load * network.max_rate(d)
        assert network.per_hop_latency(rate, d) >= 1.0

    @given(flit_sizes, dims, distances,
           st.floats(min_value=0.0, max_value=0.9),
           st.floats(min_value=0.0, max_value=0.9))
    def test_latency_monotone_in_rate(self, flits, n, d, load_a, load_b):
        network = TorusNetworkModel(dimensions=n, message_size=flits)
        cap = network.max_rate(d)
        low, high = sorted((load_a * cap, load_b * cap))
        assert network.message_latency(low, d) <= network.message_latency(
            high, d
        ) + 1e-9

    @given(flit_sizes, dims, distances)
    def test_zero_load_latency_structure(self, flits, n, d):
        network = TorusNetworkModel(dimensions=n, message_size=flits)
        assert math.isclose(
            network.message_latency(0.0, d), d + flits, rel_tol=1e-12
        )


class TestCombinedModelProperties:
    @settings(max_examples=60)
    @given(sensitivities, intercepts, flit_sizes, dims, distances)
    def test_fixed_point_on_both_curves(self, s, k, flits, n, d):
        node = NodeModel(sensitivity=s, intercept=k)
        network = TorusNetworkModel(dimensions=n, message_size=flits)
        point = solve(node, network, d)
        node_side = node.message_latency_at_rate(point.message_rate)
        network_side = network.message_latency(point.message_rate, d)
        assert math.isclose(node_side, network_side, rel_tol=1e-6, abs_tol=1e-6)
        assert 0.0 <= point.utilization < 1.0

    @settings(max_examples=60)
    @given(sensitivities, intercepts, flit_sizes, dims,
           st.floats(min_value=0.1, max_value=100.0),
           st.floats(min_value=1.01, max_value=5.0))
    def test_feedback_backoff_monotone(self, s, k, flits, n, d, stretch):
        node = NodeModel(sensitivity=s, intercept=k)
        network = TorusNetworkModel(dimensions=n, message_size=flits)
        near = solve(node, network, d)
        far = solve(node, network, d * stretch)
        assert far.message_rate <= near.message_rate + 1e-12
        assert far.message_latency >= near.message_latency - 1e-9

    @settings(max_examples=60)
    @given(sensitivities, intercepts, flit_sizes, dims,
           st.floats(min_value=2.0, max_value=300.0))
    def test_quadratic_agrees_with_bisection(self, s, k, flits, n, d):
        # Base model only (the closed form's domain).
        node = NodeModel(sensitivity=s, intercept=k)
        network = TorusNetworkModel(
            dimensions=n, message_size=flits,
            clamp_local=False, node_channel_contention=False,
        )
        # Keep the quadratic non-degenerate: at k_d -> 1+ the contention
        # geometry vanishes and the operating point degenerates to a
        # saturation-pinned corner where the two solvers legitimately
        # disagree about representability.
        assume(d / n > 1.1)
        numeric = solve(node, network, d)
        closed = solve_quadratic(node, network, d)
        assert math.isclose(
            numeric.message_rate, closed.message_rate, rel_tol=1e-7
        )

    @settings(max_examples=40)
    @given(sensitivities, flit_sizes, dims)
    def test_per_hop_latency_respects_eq16_limit(self, s, flits, n):
        # Eq 16 is a limit, not a uniform bound: in the contention-bound
        # regime T_h approaches s*B/(2n) from above with an excess that
        # vanishes like 1/d.  Check convergence at a very large distance.
        assume(s * flits / (2.0 * n) > 1.5)
        node = NodeModel(sensitivity=s, intercept=10.0)
        network = TorusNetworkModel(
            dimensions=n, message_size=flits, node_channel_contention=False
        )
        limit = limiting_per_hop_latency(s, flits, n)
        point = solve(node, network, 1e5 * n)
        assert abs(point.per_hop_latency - limit) / limit < 0.02


class TestBreakdownProperties:
    @settings(max_examples=60)
    @given(grains, contexts, st.floats(min_value=0.0, max_value=200.0),
           distances, speedups)
    def test_components_sum_to_issue_time(
        self, grain, p, fixed, d, speedup
    ):
        application = ApplicationModel(grain=grain, contexts=p)
        transaction = TransactionModel(
            critical_messages=2.0, messages_per_transaction=3.2,
            fixed_overhead=fixed,
        )
        network = TorusNetworkModel(dimensions=2, message_size=12.0)
        clocks = ClockDomain(network_speedup=speedup)
        node = NodeModel.from_components(application, transaction, clocks)
        point = solve(node, network, d)
        breakdown = decompose(point, application, transaction, network, clocks)
        assert math.isclose(
            breakdown.total,
            point.issue_time_processor(clocks),
            rel_tol=1e-9,
        )
        assert breakdown.variable_message >= 0
        assert breakdown.node_channel >= 0
