"""Average communication distance formulas (Eq 17 and relatives).

Random thread-to-processor mappings produce essentially uniform random
traffic.  For a k-ary n-dimensional torus with no self-messages the paper
uses (Eq 17)

    ``d = n * k**(n+1) / (4 * (k**n - 1))``

which is exact for even radix (each ring's mean one-way distance over all
``k`` offsets, self included, is ``k / 4``) and a close upper bound for
odd radix, where the exact per-ring mean is ``(k**2 - 1) / (4 * k)``.
Both forms are provided, along with the machine-size parameterization the
Section 4 sweeps use (where ``k = N**(1/n)`` is treated as continuous).
"""

from __future__ import annotations

from repro.errors import ParameterError
from repro.topology.torus import Torus

__all__ = [
    "random_traffic_distance",
    "random_traffic_distance_exact",
    "random_traffic_distance_for_size",
]


def random_traffic_distance(radix: float, dimensions: int) -> float:
    """Eq 17: mean hop distance of uniform random traffic on a torus.

    ``radix`` may be fractional — Section 4's machine-size sweeps treat
    ``k = N**(1/n)`` as continuous.  Must satisfy ``radix > 1`` so that at
    least one distinct pair exists.
    """
    if dimensions < 1:
        raise ParameterError(f"dimensions n must be >= 1, got {dimensions!r}")
    if not radix > 1:
        raise ParameterError(f"radix k must exceed 1, got {radix!r}")
    nodes = radix**dimensions
    return dimensions * radix ** (dimensions + 1) / (4.0 * (nodes - 1.0))


def random_traffic_distance_exact(radix: int, dimensions: int) -> float:
    """Exact mean over ordered distinct pairs, any integer radix.

    Matches Eq 17 exactly for even radix; slightly below it for odd radix
    (odd rings have no antipodal position).  Delegates to the discrete
    topology so the closed form and the geometry cannot drift apart.
    """
    return Torus(radix=radix, dimensions=dimensions).average_pair_distance()


def random_traffic_distance_for_size(processors: float, dimensions: int) -> float:
    """Eq 17 parameterized by machine size ``N`` with ``k = N**(1/n)``.

    This is how the Section 4 figures sweep machine size: the radix is
    the continuous ``n``-th root of ``N``.
    """
    if not processors > 1:
        raise ParameterError(
            f"machine size N must exceed 1, got {processors!r}"
        )
    if dimensions < 1:
        raise ParameterError(f"dimensions n must be >= 1, got {dimensions!r}")
    radix = processors ** (1.0 / dimensions)
    return random_traffic_distance(radix, dimensions)
