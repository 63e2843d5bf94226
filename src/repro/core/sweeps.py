"""Parameter-sweep utilities shared by the Section 4 experiments.

Each sweep returns a list of small frozen records rather than bare arrays
so that experiment drivers, benchmarks, and examples can render the same
results without re-deriving which column is which.  Conversions to numpy
arrays are provided where plotting-style consumers want columns.

All sweeps route through :func:`repro.core.combined.solve_batch`: the
full array of operating points is found by one vectorized bisection
instead of a Python-level loop of scalar solves, which is what makes the
figure/table reproductions and the campaign layer fast (see
``docs/performance.md``).  Results are identical to the scalar path to
solver tolerance (~1e-13 relative), which the parity tests in
``tests/properties`` enforce.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.combined import solve_batch
from repro.core.metrics import GainResult, expected_gain_batch
from repro.core.system import SystemModel

__all__ = [
    "GainCurve",
    "gain_curve",
    "SlowdownSample",
    "sweep_network_slowdowns",
]


@dataclass(frozen=True)
class GainCurve:
    """Expected-gain results across machine sizes for one system."""

    label: str
    results: List[GainResult]

    @property
    def sizes(self) -> np.ndarray:
        return np.array([r.processors for r in self.results])

    @property
    def gains(self) -> np.ndarray:
        return np.array([r.gain for r in self.results])


def gain_curve(
    system: SystemModel,
    sizes: Sequence[float],
    label: str = "",
) -> GainCurve:
    """Expected gain vs machine size (the Figure 7 sweep).

    All random-mapping points are solved in one batch; the shared
    ideal-mapping point is solved once.
    """
    size_values = [float(n) for n in sizes]
    with obs.span("sweep.gain_curve", sizes=len(size_values), label=label):
        results = expected_gain_batch(system.node, system.network, size_values)
    return GainCurve(label=label, results=results)


class _FrozenGains(Mapping):
    """Immutable, hashable float -> float mapping for frozen samples."""

    __slots__ = ("_data", "_items")

    def __init__(self, data: Mapping):
        self._data = MappingProxyType(
            {float(k): float(v) for k, v in dict(data).items()}
        )
        self._items: Tuple[Tuple[float, float], ...] = tuple(
            sorted(self._data.items())
        )

    def __getitem__(self, key: float) -> float:
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __hash__(self) -> int:
        return hash(self._items)

    def __eq__(self, other) -> bool:
        if isinstance(other, _FrozenGains):
            return self._items == other._items
        if isinstance(other, Mapping):
            return dict(self._data) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"_FrozenGains({dict(self._data)!r})"


@dataclass(frozen=True)
class SlowdownSample:
    """Expected gains at one relative network speed (one Table 1 row).

    ``gains_by_size`` maps machine size to expected gain; it is stored
    immutably so the frozen dataclass is actually hashable and frozen.
    """

    slowdown: float
    network_speedup: float
    gains_by_size: Mapping[float, float]

    def __post_init__(self) -> None:
        if not isinstance(self.gains_by_size, _FrozenGains):
            object.__setattr__(
                self, "gains_by_size", _FrozenGains(self.gains_by_size)
            )


def sweep_network_slowdowns(
    system: SystemModel,
    slowdowns: Sequence[float],
    sizes: Sequence[float],
) -> List[SlowdownSample]:
    """Expected gain vs relative network speed (the Table 1 sweep).

    ``slowdowns`` are factors applied to the system's baseline network
    clock: 1.0 reproduces the base architecture, 2.0 halves the network
    speed, and so on.  A slowdown only rescales the node curve's
    intercept (``T_r`` and ``T_f`` stretch in network cycles), so the
    whole (slowdown x size) grid — random and ideal lanes — is solved by
    a single batched bisection.
    """
    factors = [float(f) for f in slowdowns]
    size_values = [float(n) for n in sizes]
    variants = [system.with_network_slowdown(factor) for factor in factors]
    dims = system.network.dimensions

    from repro.topology.distance import random_traffic_distance_for_size

    random_distances = [
        random_traffic_distance_for_size(n, dims) for n in size_values
    ]
    lane_distances = []
    lane_intercepts = []
    for variant in variants:
        intercept = variant.node.intercept
        lane_distances.append(1.0)  # the ideal mapping's one hop
        lane_intercepts.append(intercept)
        for distance in random_distances:
            lane_distances.append(distance)
            lane_intercepts.append(intercept)

    with obs.span(
        "sweep.slowdowns", rows=len(factors), sizes=len(size_values)
    ):
        batch = solve_batch(
            system.node,
            system.network,
            np.array(lane_distances),
            intercept=np.array(lane_intercepts),
        )

    samples = []
    stride = 1 + len(size_values)
    for row, (factor, variant) in enumerate(zip(factors, variants)):
        base = row * stride
        ideal_rate = batch.transaction_rate[base]
        gains = {
            size: float(
                ideal_rate / batch.transaction_rate[base + 1 + column]
            )
            for column, size in enumerate(size_values)
        }
        samples.append(
            SlowdownSample(
                slowdown=factor,
                network_speedup=variant.clocks.network_speedup,
                gains_by_size=gains,
            )
        )
    return samples
