"""Discrete torus geometry and communication-graph utilities."""

from repro.topology.distance import (
    random_traffic_distance,
    random_traffic_distance_exact,
    random_traffic_distance_for_size,
)
from repro.topology.torus import Torus

__all__ = [
    "Torus",
    "random_traffic_distance",
    "random_traffic_distance_exact",
    "random_traffic_distance_for_size",
]
