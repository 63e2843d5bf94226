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
    return Mapping(
        assignment=tuple(int(node) for node in nodes),
        processors=torus.node_count,
    )

__all__ = [
    "identity_mapping",
    "random_mapping",
    "stride_mapping",
    "dimension_scale_mapping",
    "transpose_mapping",
    "bit_reversal_mapping",
    "shear_mapping",
    "block_collocation_mapping",
    "snake_mapping",
    "gray_code_mapping",
    "rotation_mapping",
]


def identity_mapping(processors: int) -> Mapping:
    """Thread ``i`` on processor ``i`` — the paper's ideal mapping."""
    return Mapping(assignment=tuple(range(processors)), processors=processors)


def random_mapping(processors: int, seed: int) -> Mapping:
    """A seeded uniform random bijection — "physical locality ignored".

    ``random.Random(seed).shuffle(list(range(processors)))``, run by the
    compiled swap kernel over the same Mersenne Twister stream (see
    :func:`repro.mapping.engine.shuffled`); without the kernel, Python's
    own shuffle, loudly.
    """
    if engine.kernel_available():
        return Mapping.from_array(engine.shuffled(processors, seed), processors)
    generator = random.Random(seed)
    assignment = list(range(processors))
    generator.shuffle(assignment)
    return Mapping(assignment=tuple(assignment), processors=processors)


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
    return Mapping(
        assignment=tuple((stride * i) % processors for i in range(processors)),
        processors=processors,
    )


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


def transpose_mapping(torus: Torus) -> Mapping:
    """Reverse the coordinate order: ``(x0, .., xn-1) -> (xn-1, .., x0)``.

    An automorphism of the torus, so for topology-shaped workloads it
    preserves single-hop communication — useful as a "different but still
    ideal" mapping in tests.
    """
    return _mapping_from_coords(torus, torus.coordinate_array()[::-1])


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


def block_collocation_mapping(threads: int, processors: int) -> Mapping:
    """Contiguous blocks of threads share a processor (UCL-style locality).

    With ``threads = b * processors`` this places threads
    ``b*j .. b*j + b - 1`` on processor ``j`` — collocating consecutive
    (presumably communicating) threads, the only locality lever UCL
    machines have (Section 1.1).
    """
    if threads < processors or threads % processors != 0:
        raise MappingError(
            f"block collocation needs threads to be a positive multiple "
            f"of processors, got {threads} threads on {processors}"
        )
    block = threads // processors
    return Mapping(
        assignment=tuple(i // block for i in range(threads)),
        processors=processors,
    )


def snake_mapping(torus: Torus) -> Mapping:
    """Boustrophedon order: linear thread order snakes through rows.

    Thread ``i`` (in linear order) lands on row ``i // k``; odd rows run
    right-to-left.  Consecutive threads are always adjacent, so linear
    communication chains (rings, pipelines) stay at one hop except at
    the wraparound — the classic embedding of a line into a mesh.
    Defined for 2-D tori.
    """
    if torus.dimensions != 2:
        raise MappingError(
            f"snake_mapping is 2-D only, got {torus.dimensions} dimensions"
        )
    radix = torus.radix
    assignment = []
    for thread in range(torus.node_count):
        row, offset = divmod(thread, radix)
        column = offset if row % 2 == 0 else radix - 1 - offset
        assignment.append(torus.node_at((column, row)))
    return Mapping(assignment=tuple(assignment), processors=torus.node_count)


def gray_code_mapping(torus: Torus) -> Mapping:
    """Reflected-Gray-code order along each coordinate (power-of-2 radix).

    Adjacent linear indices map to coordinates differing in exactly one
    ring position per dimension digit, keeping sequential neighbors
    close — the standard trick for embedding rings into binary tori.
    """
    radix = torus.radix
    bits = radix.bit_length() - 1
    if 2**bits != radix:
        raise MappingError(
            f"gray_code_mapping needs a power-of-two radix, got {radix}"
        )

    coords = np.asarray(torus.coordinate_array(), dtype=np.int64)
    return _mapping_from_coords(torus, coords ^ (coords >> 1))


def rotation_mapping(torus: Torus, offsets: Sequence[int]) -> Mapping:
    """Translate every thread by a fixed coordinate offset (torus shift).

    A torus automorphism: preserves all pairwise distances exactly, so
    for any workload it performs identically to the identity mapping —
    useful for verifying that measurements are translation-invariant.
    """
    if len(offsets) != torus.dimensions:
        raise MappingError(
            f"expected {torus.dimensions} offsets, got {len(offsets)}"
        )
    coords = torus.coordinate_array()
    shifts = np.asarray(offsets, dtype=np.int64)[:, None]
    return _mapping_from_coords(torus, (coords + shifts) % torus.radix)
