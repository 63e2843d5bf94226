"""Property-based tests for the fabrics' conservation invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cut_through import CutThroughFabric
from repro.sim.message import Message, MessageKind
from repro.sim.wormhole import WormholeFabric
from repro.topology.torus import Torus


def traffic_strategy(node_count):
    pair = st.tuples(
        st.integers(0, node_count - 1),
        st.integers(0, node_count - 1),
        st.sampled_from(list(MessageKind)),
    ).filter(lambda t: t[0] != t[1])
    return st.lists(pair, min_size=1, max_size=30)


def drain(fabric, limit=60000):
    cycle = 0
    while not fabric.quiescent():
        fabric.tick(cycle)
        cycle += 1
        if cycle > limit:
            raise AssertionError("fabric failed to drain")
    return cycle


class TestFabricConservation:
    @settings(max_examples=40, deadline=None)
    @given(traffic_strategy(16))
    def test_wormhole_delivers_everything_exactly_once(self, traffic):
        torus = Torus(radix=4, dimensions=2)
        delivered = []
        fabric = WormholeFabric(torus, on_delivery=delivered.append)
        messages = []
        for index, (src, dst, kind) in enumerate(traffic):
            message = Message(kind, src, dst, (0, 0), index)
            messages.append(message)
            fabric.inject(message, 0)
        drain(fabric)
        assert len(delivered) == len(messages)
        assert {w.message.uid for w in delivered} == {
            m.uid for m in messages
        }

    @settings(max_examples=40, deadline=None)
    @given(traffic_strategy(16))
    def test_cut_through_delivers_everything_exactly_once(self, traffic):
        torus = Torus(radix=4, dimensions=2)
        delivered = []
        fabric = CutThroughFabric(torus, on_delivery=delivered.append)
        messages = []
        for index, (src, dst, kind) in enumerate(traffic):
            message = Message(kind, src, dst, (0, 0), index)
            messages.append(message)
            fabric.inject(message, 0)
        drain(fabric)
        assert len(delivered) == len(messages)
        assert fabric.in_flight == 0

    @settings(max_examples=30, deadline=None)
    @given(traffic_strategy(16))
    def test_latency_at_least_zero_load(self, traffic):
        torus = Torus(radix=4, dimensions=2)
        delivered = []
        fabric = CutThroughFabric(torus, on_delivery=delivered.append)
        for index, (src, dst, kind) in enumerate(traffic):
            fabric.inject(Message(kind, src, dst, (0, 0), index), 0)
        drain(fabric)
        for transit in delivered:
            message = transit.message
            minimum = torus.distance(message.source, message.destination)
            assert message.latency >= minimum + message.flits

    @settings(max_examples=30, deadline=None)
    @given(traffic_strategy(16))
    def test_link_flits_match_route_lengths(self, traffic):
        torus = Torus(radix=4, dimensions=2)
        fabric = CutThroughFabric(torus, on_delivery=lambda t: None)
        expected = 0
        for index, (src, dst, kind) in enumerate(traffic):
            message = Message(kind, src, dst, (0, 0), index)
            expected += torus.distance(src, dst) * message.flits
            fabric.inject(message, 0)
        drain(fabric)
        assert sum(fabric.link_flits.values()) == expected
