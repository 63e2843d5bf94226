"""The paper's analytical modeling framework (Section 2).

Component models — :class:`ApplicationModel`, :class:`TransactionModel`,
:class:`TorusNetworkModel` — compose into a :class:`NodeModel`, which the
combined-model solver intersects with the network model to find the
self-consistent :class:`OperatingPoint`.  :class:`SystemModel` is the
convenient all-in-one entry point.
"""

from repro.core.application import ApplicationModel
from repro.core.breakdown import IssueTimeBreakdown, decompose
from repro.core.combined import (
    BatchOperatingPoints,
    OperatingPoint,
    open_loop,
    solve,
    solve_batch,
    solve_quadratic,
)
from repro.core.limits import (
    PerHopSample,
    limiting_per_hop_latency,
    limiting_per_hop_latency_for,
    per_hop_curve,
    size_to_reach_fraction,
)
from repro.core.metrics import (
    GainResult,
    expected_gain,
    expected_gain_batch,
    performance_ratio,
)
from repro.core.bus import SharedBusModel
from repro.core.indirect import IndirectNetworkModel
from repro.core.network import TorusNetworkModel
from repro.core.node import NodeModel
from repro.core.sweeps import (
    GainCurve,
    SlowdownSample,
    gain_curve,
    sweep_network_slowdowns,
)
from repro.core.system import SystemModel
from repro.core.transaction import TransactionModel

__all__ = [
    "ApplicationModel",
    "TransactionModel",
    "TorusNetworkModel",
    "IndirectNetworkModel",
    "SharedBusModel",
    "NodeModel",
    "OperatingPoint",
    "BatchOperatingPoints",
    "SystemModel",
    "solve",
    "solve_batch",
    "solve_quadratic",
    "open_loop",
    "decompose",
    "IssueTimeBreakdown",
    "GainResult",
    "expected_gain",
    "expected_gain_batch",
    "performance_ratio",
    "limiting_per_hop_latency",
    "limiting_per_hop_latency_for",
    "per_hop_curve",
    "PerHopSample",
    "size_to_reach_fraction",
    "GainCurve",
    "SlowdownSample",
    "gain_curve",
    "sweep_network_slowdowns",
]
