"""Tests for the rigid-worm wormhole fabric."""

import pytest

from repro.errors import SimulationError
from repro.sim.message import Message, MessageKind
from repro.sim.wormhole import WormholeFabric
from repro.topology.torus import Torus


def make_fabric(radix=8, dimensions=2):
    delivered = []
    torus = Torus(radix=radix, dimensions=dimensions)
    fabric = WormholeFabric(torus, on_delivery=delivered.append)
    return fabric, delivered, torus


def control(source, destination, txn=0):
    return Message(MessageKind.READ_REQUEST, source, destination, (0, 0), txn)


def run_until_quiescent(fabric, start_cycle=0, limit=10000):
    cycle = start_cycle
    while not fabric.quiescent():
        fabric.tick(cycle)
        cycle += 1
        if cycle - start_cycle > limit:
            raise AssertionError("fabric did not quiesce")
    return cycle


class TestRoutes:
    def test_route_has_injection_and_ejection(self):
        fabric, _, torus = make_fabric()
        route = fabric.build_route(0, 9)
        assert route[0] == ("inj", 0)
        assert route[-1] == ("ej", 9)
        assert len(route) == torus.distance(0, 9) + 2

    def test_rejects_self_route(self):
        fabric, _, _ = make_fabric()
        with pytest.raises(SimulationError):
            fabric.build_route(3, 3)

    def test_dateline_vc_assignment(self):
        fabric, _, _ = make_fabric()
        # Node 6 -> node 1 in x: route 6 -> 7 -> 0 -> 1 wraps at 7 -> 0.
        route = fabric.build_route(6, 1)
        links = [k for k in route if k[0] == "link"]
        vcs = [k[4] for k in links]
        assert vcs == [0, 0, 1]  # VC switches after crossing the dateline

    def test_no_wrap_stays_on_vc0(self):
        fabric, _, _ = make_fabric()
        route = fabric.build_route(0, 3)
        assert all(k[4] == 0 for k in route if k[0] == "link")

    def test_vc_resets_per_dimension(self):
        fabric, _, torus = make_fabric()
        # 6 -> 1 in x (wraps), then some hops in y (must restart at VC 0).
        destination = torus.node_at((1, 2))
        route = fabric.build_route(6, destination)
        y_links = [k for k in route if k[0] == "link" and k[2] == 1]
        assert y_links and y_links[0][4] == 0


class TestZeroLoadTiming:
    @pytest.mark.parametrize("destination", [1, 9, 27])
    def test_latency_is_distance_plus_flits(self, destination):
        fabric, delivered, torus = make_fabric()
        message = control(0, destination)
        fabric.inject(message, 0)
        run_until_quiescent(fabric)
        assert len(delivered) == 1
        expected = torus.distance(0, destination) + message.flits
        assert message.latency == expected

    def test_hops_and_wait_recorded(self):
        fabric, delivered, torus = make_fabric()
        fabric.inject(control(0, 9), 0)
        run_until_quiescent(fabric)
        worm = delivered[0]
        assert worm.hops == torus.distance(0, 9)
        assert worm.source_wait == 0


class TestContention:
    def test_source_serialization(self):
        # Two messages from one node: the second waits a full message
        # time at the injection channel.
        fabric, delivered, _ = make_fabric()
        first, second = control(0, 9, txn=1), control(0, 9, txn=2)
        fabric.inject(first, 0)
        fabric.inject(second, 0)
        run_until_quiescent(fabric)
        assert second.latency >= first.latency + first.flits - 1
        worm_by_uid = {w.message.uid: w for w in delivered}
        assert worm_by_uid[second.uid].source_wait >= first.flits - 1

    def test_disjoint_paths_do_not_interact(self):
        fabric, _, torus = make_fabric()
        a = control(0, 1, txn=1)
        b = control(18, 19, txn=2)
        fabric.inject(a, 0)
        fabric.inject(b, 0)
        run_until_quiescent(fabric)
        assert a.latency == 1 + a.flits
        assert b.latency == 1 + b.flits

    def test_shared_channel_fifo_order(self):
        # Both messages need the same first link (node 0 -> node 1).
        fabric, _, _ = make_fabric()
        a = control(0, 2, txn=1)
        b = control(0, 1, txn=2)
        fabric.inject(a, 0)
        fabric.inject(b, 0)
        run_until_quiescent(fabric)
        assert a.delivered_at < b.delivered_at

    def test_link_flit_accounting(self):
        fabric, _, _ = make_fabric()
        message = control(0, 2)  # two hops in x
        fabric.inject(message, 0)
        run_until_quiescent(fabric)
        assert sum(fabric.link_flits.values()) == 2 * message.flits

    def test_many_messages_all_delivered(self):
        fabric, delivered, torus = make_fabric(radix=4)
        count = 0
        for src in torus.nodes():
            for dst in torus.nodes():
                if src != dst and torus.distance(src, dst) <= 2:
                    fabric.inject(control(src, dst, txn=count), 0)
                    count += 1
        run_until_quiescent(fabric, limit=50000)
        assert len(delivered) == count
        assert fabric.delivered_count == count


class TestTorusWraparoundSafety:
    def test_heavy_ring_traffic_does_not_deadlock(self):
        # All nodes on one ring send 3 hops forward simultaneously —
        # the classic torus-deadlock pattern the dateline VCs break.
        fabric, delivered, torus = make_fabric(radix=8, dimensions=1)
        messages = []
        for lap in range(3):
            for src in torus.nodes():
                message = control(src, (src + 3) % 8, txn=lap)
                messages.append(message)
                fabric.inject(message, 0)
        run_until_quiescent(fabric, limit=100000)
        assert len(delivered) == len(messages)
