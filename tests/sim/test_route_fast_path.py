"""Fabric routes and the wormhole fabric's quiescent ticks.

``CutThroughFabric._route_ids`` computes channel ids directly from node
arithmetic (the light-traffic optimization); ``build_route`` — key
tuples — stays alive as its executable specification.  These tests pin
the two channel-for-channel across shapes, directions, and ties, pin
the wormhole fabric's dateline VC assignment, and check that idle
wormhole ticks change nothing observable.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.cut_through import CutThroughFabric
from repro.sim.message import Message, MessageKind
from repro.sim.wormhole import WormholeFabric
from repro.topology.torus import Torus


def _wormhole(radix, dimensions, on_delivery=lambda worm: None):
    return WormholeFabric(Torus(radix=radix, dimensions=dimensions), on_delivery)


class TestWormholeRoutes:
    def test_self_route_rejected(self):
        with pytest.raises(SimulationError):
            _wormhole(4, 2)._route_ids(3, 3)

    def test_dateline_vc_switch(self):
        # A wrapping hop must carry VC 0 on the wrap itself and VC 1
        # afterwards — the dateline rule.
        fabric = _wormhole(5, 1)
        index = fabric._channel_index
        ids = fabric._route_ids(4, 1)  # 4 -> 0 wraps, then 0 -> 1
        assert ids == [
            index[("inj", 4)],
            index[("link", 4, 0, 1, 0)],
            index[("link", 0, 0, 1, 1)],
            index[("ej", 1)],
        ]


def _cut_through_channel_id(key, nodes, dimensions):
    """The cut-through fabric's documented channel-id enumeration."""
    if key[0] == "inj":
        return key[1]
    if key[0] == "ej":
        return nodes + key[1]
    _, node, dim, step = key
    return 2 * nodes + 2 * (node * dimensions + dim) + (step == -1)


#: 1-, 2- and 3-D tori, odd and even radix (even radix has half-way ties).
CUT_THROUGH_SHAPES = [(5, 1), (6, 1), (3, 2), (4, 2), (5, 2), (3, 3), (4, 3)]


class TestCutThroughRouteIdParity:
    @pytest.mark.parametrize("radix,dimensions", CUT_THROUGH_SHAPES)
    def test_all_pairs_match_key_built_routes(self, radix, dimensions):
        fabric = CutThroughFabric(
            Torus(radix=radix, dimensions=dimensions),
            on_delivery=lambda t: None,
        )
        nodes = fabric.torus.node_count
        for source in range(nodes):
            for destination in range(nodes):
                if source == destination:
                    continue
                expected = [
                    _cut_through_channel_id(key, nodes, dimensions)
                    for key in fabric.build_route(source, destination)
                ]
                assert fabric._route_ids(source, destination) == expected

    def test_self_route_rejected(self):
        fabric = CutThroughFabric(Torus(radix=4, dimensions=2),
                                  on_delivery=lambda t: None)
        with pytest.raises(SimulationError):
            fabric._route_ids(3, 3)


class TestQuiescentFastForward:
    def test_idle_ticks_are_noops(self):
        delivered = []
        fabric = _wormhole(4, 2, on_delivery=delivered.append)
        for cycle in range(100):
            fabric.tick(cycle)
        assert fabric.quiescent()
        assert fabric._stall_cycles == 0

    def test_traffic_after_idle_still_delivers(self):
        delivered = []
        fabric = _wormhole(4, 2, on_delivery=delivered.append)
        for cycle in range(50):
            fabric.tick(cycle)
        fabric.inject(
            Message(MessageKind.READ_REQUEST, 0, 5, (0, 0), 0), cycle=50
        )
        cycle = 50
        while not fabric.quiescent():
            fabric.tick(cycle)
            cycle += 1
        assert len(delivered) == 1
        assert delivered[0].hops == 2
        for idle in range(cycle, cycle + 20):
            fabric.tick(idle)
        assert fabric.quiescent()

    def test_stall_counter_resets_when_idle(self):
        fabric = _wormhole(4, 2)
        fabric.stall_limit = 5
        # Idle ticks must never accumulate toward the stall limit.
        for cycle in range(20):
            fabric.tick(cycle)
        assert fabric._stall_cycles == 0
