"""Deadlock safety-net behavior of the wormhole fabric.

The dateline VC scheme makes routing deadlock impossible for e-cube
routes, so the stall counter is a safety net for bugs — but a safety net
only helps if it actually fires.  These tests craft a genuine circular
wait with :func:`inject_on_route` (two worms holding each other's next
channel, a cycle e-cube routing can never produce) and check that the
fabric raises :class:`SimulationError` at exactly ``stall_limit``
no-progress cycles, and that *any* progressing cycle — here, an
unrelated worm draining on a disjoint path — resets the counter rather
than merely pausing it.
"""

from repro.errors import SimulationError
from repro.sim.message import Message, MessageKind
from repro.sim.wormhole import Worm, WormholeFabric
from repro.topology.torus import Torus

# On the radix-4 ring: channel 0->1 and channel 1->0, both VC 0.
FORWARD = ("link", 0, 0, 1, 0)
BACKWARD = ("link", 1, 0, -1, 0)


def inject_on_route(fabric, message, route_keys, cycle):
    """Queue a worm on an explicit channel-key route, bypassing e-cube
    and dateline route construction, so a test can build a channel
    dependency (a circular wait) that legal routing never produces."""
    message.injected_at = cycle
    worm = Worm(
        message=message, route=[fabric._channel_index[key] for key in route_keys]
    )
    fabric._enqueue(worm, worm.route[0])


def control(source, destination, tag):
    return Message(MessageKind.READ_REQUEST, source, destination, (0, 0), tag)


def circular_wait_fabric(stall_limit):
    """Two worms that each hold the channel the other needs.

    Worm A: inj 0 -> (0->1) -> (1->0) -> ej 0.
    Worm B: inj 1 -> (1->0) -> (0->1) -> ej 1.
    By cycle 2, A holds 0->1 and waits on 1->0 while B holds 1->0 and
    waits on 0->1; with 8-flit worms neither ever releases.  Cycle 1 is
    the last progressing cycle.
    """
    torus = Torus(radix=4, dimensions=1)
    fabric = WormholeFabric(torus, on_delivery=lambda worm: None)
    fabric.stall_limit = stall_limit
    inject_on_route(
        fabric, control(0, 0, 0), [("inj", 0), FORWARD, BACKWARD, ("ej", 0)], 0
    )
    inject_on_route(
        fabric, control(1, 1, 1), [("inj", 1), BACKWARD, FORWARD, ("ej", 1)], 0
    )
    return fabric


def raise_cycle(fabric, inject_at=None, message=None, route=None, limit=5000):
    """Tick until the stall safety net fires; return the raising cycle."""
    for cycle in range(limit):
        if inject_at is not None and cycle == inject_at:
            inject_on_route(fabric, message, route, cycle)
        try:
            fabric.tick(cycle)
        except SimulationError:
            return cycle
    raise AssertionError("stall safety net never fired")


class TestCircularWait:
    def test_raises_at_exactly_stall_limit(self):
        # Last progress at cycle 1; the counter reaches stall_limit on
        # cycle 1 + stall_limit, and raising one cycle earlier or later
        # would miss the off-by-one.
        for stall_limit in (40, 41):
            fabric = circular_wait_fabric(stall_limit)
            assert raise_cycle(fabric) == 1 + stall_limit

    def test_progressing_cycle_resets_counter(self):
        # Without interference the net fires at cycle 41.  A third worm
        # injected at cycle 30 on a disjoint path (2 -> 3) progresses
        # for several cycles; if that only *paused* the counter the
        # raise would land around cycle 50, but a reset restarts the
        # count from the bystander's last movement, pushing the raise
        # past cycle 30 + stall_limit.
        stall_limit = 40
        fabric = circular_wait_fabric(stall_limit)
        bystander_route = [("inj", 2), ("link", 2, 0, 1, 0), ("ej", 3)]
        cycle = raise_cycle(
            fabric,
            inject_at=30,
            message=control(2, 3, 2),
            route=bystander_route,
        )
        assert cycle >= 30 + stall_limit
