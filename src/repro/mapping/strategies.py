"""Concrete mapping strategies.

Deterministic constructions covering the spectrum from ideal (identity:
every application-graph edge is one network hop for the paper's
torus-neighbor workload) through structured scramblings (stride, linear
coordinate scaling, bit reversal) to seeded-random placements, which is
the paper's stand-in for "physical locality ignored".
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np

from repro.errors import MappingError
from repro.mapping import engine
from repro.mapping.base import Mapping
from repro.topology.torus import Torus


def _mapping_from_coords(torus: Torus, coords: np.ndarray) -> Mapping:
    """Mapping whose thread ``i`` lands on the node at ``coords[:, i]``.

    The inverse of :meth:`Torus.coordinate_array`: node ids are rebuilt
    as base-``k`` digits (dimension 0 least significant), vectorized.
    """
    nodes = np.zeros(coords.shape[1], dtype=np.int64)
    for dim in reversed(range(torus.dimensions)):
        nodes = nodes * torus.radix + coords[dim]
    return Mapping._adopt(nodes, torus.node_count)

__all__ = [
    "identity_mapping",
    "random_mapping",
    "stride_mapping",
    "dimension_scale_mapping",
    "bit_reversal_mapping",
    "shear_mapping",
]


def identity_mapping(processors: int) -> Mapping:
    """Thread ``i`` on processor ``i`` — the paper's ideal mapping."""
    return Mapping._adopt(np.arange(processors, dtype=np.int64), processors)


def random_mapping(processors: int, seed: int) -> Mapping:
    """A seeded uniform random bijection — "physical locality ignored".

    ``random.Random(seed).shuffle(list(range(processors)))``, run by the
    compiled swap kernel over the same Mersenne Twister stream (see
    :func:`repro.mapping.engine.shuffled`); without the kernel, Python's
    own shuffle, loudly.
    """
    if engine.kernel_available():
        return Mapping._adopt(engine.shuffled(processors, seed), processors)
    generator = random.Random(seed)
    assignment = list(range(processors))
    generator.shuffle(assignment)
    return Mapping(assignment, processors)


def stride_mapping(processors: int, stride: int) -> Mapping:
    """Thread ``i`` on processor ``(stride * i) mod P``.

    Requires ``gcd(stride, P) == 1`` so the result is a bijection.
    Strides near 1 keep neighbors close; strides near ``P/2`` scatter
    them across the machine.
    """
    if math.gcd(stride, processors) != 1:
        raise MappingError(
            f"stride {stride} shares a factor with {processors}; "
            "the mapping would not be a bijection"
        )
    threads = np.arange(processors, dtype=np.int64)
    return Mapping._adopt(threads * (stride % processors) % processors, processors)


def dimension_scale_mapping(torus: Torus, multipliers: Sequence[int]) -> Mapping:
    """Scale each coordinate: ``x_j -> (m_j * x_j) mod k``.

    Each ``m_j`` must be coprime to the radix.  For the torus-neighbor
    workload this stretches dimension ``j``'s edges to
    ``min(m_j, k - m_j)`` hops, giving precise control over per-dimension
    communication distance.
    """
    if len(multipliers) != torus.dimensions:
        raise MappingError(
            f"expected {torus.dimensions} multipliers, got {len(multipliers)}"
        )
    for multiplier in multipliers:
        if math.gcd(multiplier, torus.radix) != 1:
            raise MappingError(
                f"multiplier {multiplier} shares a factor with radix "
                f"{torus.radix}; the mapping would not be a bijection"
            )
    coords = torus.coordinate_array()
    factors = np.asarray(multipliers, dtype=np.int64)[:, None]
    return _mapping_from_coords(torus, (factors * coords) % torus.radix)


def bit_reversal_mapping(torus: Torus) -> Mapping:
    """Reverse the bits of every coordinate (radix must be a power of 2).

    The classic FFT-style scrambling: adjacent coordinates land far
    apart, yielding a mid-range average communication distance.
    """
    radix = torus.radix
    bits = radix.bit_length() - 1
    if 2**bits != radix:
        raise MappingError(
            f"bit reversal needs a power-of-two radix, got {radix}"
        )

    def reverse(value: int) -> int:
        result = 0
        for _ in range(bits):
            result = (result << 1) | (value & 1)
            value >>= 1
        return result

    lookup = np.array([reverse(value) for value in range(radix)], dtype=np.int64)
    return _mapping_from_coords(torus, lookup[torus.coordinate_array()])


def shear_mapping(torus: Torus, factor: int = 1) -> Mapping:
    """Shear the first coordinate by the second: ``x0 -> x0 + factor*x1``.

    A unimodular (hence bijective) transform available for ``n >= 2``;
    stretches one dimension's edges while leaving the other's intact,
    producing fractional average distances between the scaled extremes.
    """
    if torus.dimensions < 2:
        raise MappingError("shear_mapping needs at least two dimensions")
    coords = np.array(torus.coordinate_array(), dtype=np.int64)
    coords[0] = (coords[0] + factor * coords[1]) % torus.radix
    return _mapping_from_coords(torus, coords)
