"""The combined model (Section 2.5 of the paper).

The node model (Eq 9) says how much latency a node can *absorb* at a given
injection rate; the network model (Eq 11) says how much latency the
network *imposes* at that rate.  The combined model closes the loop:
nodes "back off" as latencies rise, injecting only at the rate consistent
with the latency they actually observe.  Formally, the operating point is
the injection rate ``r_m`` at which the two curves intersect:

    ``s / r_m - intercept  =  T_m_network(r_m, d)``

For the base network model this reduces to a quadratic polynomial in
``r_m`` (solved in closed form by :func:`solve_quadratic`); with the
paper's node-channel extension the equation gains an extra rational term,
so the production solver (:func:`solve`) uses safeguarded bisection on a
bracket that always exists:

* as ``r_m -> 0+`` the node curve diverges to ``+inf`` while the network
  curve tends to the finite zero-load latency, and
* as ``r_m`` approaches the smallest saturation rate the network curve
  diverges while the node curve stays finite,

so the difference changes sign exactly once (node curve strictly
decreasing, network curve non-decreasing in ``r_m``).

The solved :class:`OperatingPoint` carries every quantity of interest —
rates, latencies, utilization, per-hop latency — in network cycles, with a
conversion helper for the processor time base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.network import TorusNetworkModel
from repro.core.node import NodeModel
from repro.errors import ConvergenceError, ParameterError, SaturationError
from repro.units import ClockDomain

__all__ = [
    "OperatingPoint",
    "BatchOperatingPoints",
    "solve",
    "solve_batch",
    "solve_quadratic",
    "open_loop",
]

# Solver work counters.  Diagnostics, not results: experiment outputs
# never depend on them, so parallel runs (one registry per worker
# process) stay byte-identical to serial ones.  The runner reports them
# per experiment under their names without the ``perf.`` prefix.
_SOLVE_CALLS = obs.REGISTRY.counter(
    "perf.solve_calls",
    help="scalar combined-model solves (bisection or closed form)",
)
_BATCH_SOLVES = obs.REGISTRY.counter(
    "perf.batch_solves", help="solve_batch invocations"
)
_BATCH_POINTS = obs.REGISTRY.counter(
    "perf.batch_points", help="total operating points produced by solve_batch"
)

#: Relative width at which bisection declares convergence.
_RELATIVE_TOLERANCE = 1e-13
#: Hard cap on bisection iterations (2**-200 of the bracket; unreachable).
_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class OperatingPoint:
    """Self-consistent solution of the combined model.

    All times are network cycles; all rates are per network cycle.
    ``distance`` is the average communication distance ``d`` the point was
    solved for.
    """

    message_rate: float
    message_latency: float
    per_hop_latency: float
    utilization: float
    node_channel_delay: float
    distance: float
    transaction_rate: float
    issue_time: float
    transaction_latency: float

    @property
    def message_time(self) -> float:
        """Average inter-message injection time ``t_m = 1 / r_m``."""
        return 1.0 / self.message_rate

    def issue_time_processor(self, clocks: ClockDomain) -> float:
        """``t_t`` in processor cycles."""
        return clocks.to_processor(self.issue_time)


def _make_point(
    node: NodeModel,
    network: TorusNetworkModel,
    message_rate: float,
    distance: float,
) -> OperatingPoint:
    """Populate an :class:`OperatingPoint` from a solved injection rate."""
    latency = network.message_latency(message_rate, distance)
    transaction_rate = node.transaction_rate(message_rate)
    issue_time = node.issue_time(1.0 / message_rate)
    # Transaction latency follows from the node-model identity
    # T_m = s * t_m - intercept  <=>  T_t = c * T_m + T_f (all network time),
    # and since s = p*g/c the cleanest recovery is through the message curve.
    transaction_latency = node.sensitivity * (1.0 / message_rate) - node.intercept
    return OperatingPoint(
        message_rate=message_rate,
        message_latency=latency,
        per_hop_latency=network.per_hop_latency(message_rate, distance),
        utilization=network.channel_utilization(message_rate, distance),
        node_channel_delay=network.node_channel_delay(message_rate),
        distance=distance,
        transaction_rate=transaction_rate,
        issue_time=issue_time,
        transaction_latency=transaction_latency,
    )


def _curve_gap(
    node: NodeModel,
    network: TorusNetworkModel,
    message_rate: float,
    distance: float,
) -> float:
    """Node-curve latency minus network-curve latency at ``message_rate``.

    Positive while the node could absorb more latency than the network
    imposes (i.e. the node would speed up); the operating point is the
    root.
    """
    return node.message_latency_at_rate(message_rate) - network.message_latency(
        message_rate, distance
    )


def solve(
    node: NodeModel,
    network: TorusNetworkModel,
    distance: float,
) -> OperatingPoint:
    """Find the self-consistent operating point for one configuration.

    Uses closed-form solutions where the model permits (constant network
    latency under the local clamp) and safeguarded bisection otherwise.

    With observability on (:func:`repro.obs.enable`) each call emits a
    ``solver.solve`` span and a per-solve convergence record (branch,
    iterations, bracket width, residual); the disabled path is the bare
    solver — one flag check, no other overhead.
    """
    if not distance > 0:
        raise ParameterError(f"distance d must be positive, got {distance!r}")
    _SOLVE_CALLS.inc()
    if not obs.is_enabled():
        return _solve_impl(node, network, distance, None)
    with obs.span("solver.solve", distance=float(distance)):
        return _solve_impl(node, network, distance, obs.solver_diagnostics())


def _solve_impl(
    node: NodeModel,
    network: TorusNetworkModel,
    distance: float,
    diag,
) -> OperatingPoint:
    ceiling = network.max_rate(distance)

    # Fast path: no contention terms at all => network latency is the
    # constant d + B and the intersection is linear in r_m.
    if (
        network.contention_geometry(distance) == 0.0
        and not network.node_channel_contention
    ):
        rate = node.sensitivity / (node.intercept + network.zero_load_latency(distance))
        if rate >= network.saturation_rate(distance):
            if diag is not None:
                diag.record(
                    "scalar", "saturation", distance, message_rate=rate,
                    utilization=1.0,
                )
            raise SaturationError(
                "clamped model predicts injection beyond channel capacity "
                f"(r_m = {rate:.6g} >= {network.saturation_rate(distance):.6g}); "
                "the k_d < 1 clamp is not meaningful at this load"
            )
        point = _make_point(node, network, rate, distance)
        if diag is not None:
            diag.record(
                "scalar", "linear", distance, message_rate=rate,
                utilization=point.utilization,
            )
        return point

    low = min(1e-12, ceiling * 1e-9)
    high = ceiling * (1.0 - 1e-9)
    gap_low = _curve_gap(node, network, low, distance)
    gap_high = _curve_gap(node, network, high, distance)
    if gap_low < 0:
        # The node cannot sustain even an infinitesimal rate profitably;
        # with a positive sensitivity this cannot happen (node curve
        # diverges), so reaching here means numerically degenerate input.
        if diag is not None:
            diag.record(
                "scalar", "saturation", distance, residual=gap_low,
                message_rate=low,
            )
        raise SaturationError(
            f"no feasible operating point: node curve below network curve "
            f"at r_m = {low:.3g} (gap {gap_low:.3g})"
        )
    if gap_high > 0:
        # Network curve stays below the node curve all the way to
        # saturation: only possible when every contention term is finite
        # at the ceiling (e.g. clamp active but node channels enabled and
        # the binding ceiling is the mesh channel, where T_h is clamped).
        # The model then has no interior fixed point; the honest answer
        # is saturation.
        if diag is not None:
            diag.record(
                "scalar", "saturation", distance, residual=gap_high,
                message_rate=high, utilization=1.0,
            )
        raise SaturationError(
            "operating point lies beyond network saturation "
            f"(gap at ceiling = {gap_high:.3g}); reduce load or enable "
            "the contention terms"
        )

    for iteration in range(1, _MAX_ITERATIONS + 1):
        mid = 0.5 * (low + high)
        gap_mid = _curve_gap(node, network, mid, distance)
        if gap_mid > 0:
            low = mid
        else:
            high = mid
        if (high - low) <= _RELATIVE_TOLERANCE * high:
            rate = 0.5 * (low + high)
            point = _make_point(node, network, rate, distance)
            if diag is not None:
                diag.record(
                    "scalar", "bisection", distance, iterations=iteration,
                    bracket_width=(high - low) / high,
                    residual=_curve_gap(node, network, rate, distance),
                    message_rate=rate, utilization=point.utilization,
                )
            return point

    if diag is not None:
        diag.record(
            "scalar", "non-convergent", distance, iterations=_MAX_ITERATIONS,
            bracket_width=(high - low) / high,
            residual=_curve_gap(node, network, 0.5 * (low + high), distance),
            message_rate=0.5 * (low + high),
        )
    raise ConvergenceError(
        f"combined-model bisection failed to converge (bracket [{low}, {high}])",
        residual=_curve_gap(node, network, 0.5 * (low + high), distance),
    )


@dataclass(frozen=True)
class BatchOperatingPoints:
    """Struct-of-arrays form of many solved operating points.

    Every field is a float64 array of the common broadcast shape passed
    to :func:`solve_batch`; element ``i`` of every array describes the
    same operating point.  :meth:`point` materializes one element as a
    scalar :class:`OperatingPoint`, :meth:`points` all of them.
    """

    message_rate: np.ndarray
    message_latency: np.ndarray
    per_hop_latency: np.ndarray
    utilization: np.ndarray
    node_channel_delay: np.ndarray
    distance: np.ndarray
    transaction_rate: np.ndarray
    issue_time: np.ndarray
    transaction_latency: np.ndarray

    def __len__(self) -> int:
        return self.message_rate.shape[0]

    def point(self, index: int) -> OperatingPoint:
        """Element ``index`` as a scalar :class:`OperatingPoint`."""
        return OperatingPoint(
            message_rate=float(self.message_rate[index]),
            message_latency=float(self.message_latency[index]),
            per_hop_latency=float(self.per_hop_latency[index]),
            utilization=float(self.utilization[index]),
            node_channel_delay=float(self.node_channel_delay[index]),
            distance=float(self.distance[index]),
            transaction_rate=float(self.transaction_rate[index]),
            issue_time=float(self.issue_time[index]),
            transaction_latency=float(self.transaction_latency[index]),
        )

    def points(self) -> List[OperatingPoint]:
        """All elements as scalar :class:`OperatingPoint` records."""
        return [self.point(i) for i in range(len(self))]


def solve_batch(
    node: NodeModel,
    network: TorusNetworkModel,
    distances,
    sensitivity=None,
    intercept=None,
) -> BatchOperatingPoints:
    """Vectorized :func:`solve` over arrays of model parameters.

    ``distances`` — and optionally per-lane overrides of the node curve's
    ``sensitivity`` and ``intercept`` (defaulting to ``node``'s scalars)
    — broadcast to a common 1-D shape; every lane is solved with the same
    safeguarded bisection as the scalar path, executed simultaneously on
    numpy arrays.  Lane ``i``'s bracket updates replicate the scalar
    solver's exactly (converged lanes freeze while the rest keep
    bisecting), so results agree with :func:`solve` to full precision —
    the property the parity tests in ``tests/properties`` pin down.

    Raises the same errors as the scalar path (:class:`ParameterError`
    for non-positive distances, :class:`SaturationError` when any lane
    has no interior fixed point), identifying the first offending lane.

    Only direct torus networks are supported; pass an
    :class:`~repro.core.indirect.IndirectNetworkModel` to the scalar
    solver instead.
    """
    if not isinstance(network, TorusNetworkModel):
        raise ParameterError(
            "solve_batch supports TorusNetworkModel only; use solve() for "
            f"{type(network).__name__}"
        )
    d = np.atleast_1d(np.asarray(distances, dtype=float))
    s = np.asarray(
        node.sensitivity if sensitivity is None else sensitivity, dtype=float
    )
    intercept_arr = np.asarray(
        node.intercept if intercept is None else intercept, dtype=float
    )
    d, s, intercept_arr = np.broadcast_arrays(d, s, intercept_arr)
    d = np.ascontiguousarray(d)
    s = np.ascontiguousarray(s)
    intercept_arr = np.ascontiguousarray(intercept_arr)
    if d.ndim != 1:
        raise ParameterError(
            f"solve_batch expects 1-D parameter arrays, got shape {d.shape}"
        )
    if d.size and not (d > 0).all():
        bad = float(d[np.argmin(d > 0)])
        raise ParameterError(f"distance d must be positive, got {bad!r}")
    if s.size and not (s > 0).all():
        bad = float(s[np.argmin(s > 0)])
        raise ParameterError(
            f"latency sensitivity s must be positive, got {bad!r}"
        )

    _BATCH_SOLVES.inc()
    _BATCH_POINTS.inc(d.size)
    if d.size == 0:
        empty = np.empty(0, dtype=float)
        return BatchOperatingPoints(*([empty] * 9))

    if not obs.is_enabled():
        return _solve_batch_impl(node, network, d, s, intercept_arr, None)
    with obs.span("solver.solve_batch", lanes=int(d.size)):
        return _solve_batch_impl(
            node, network, d, s, intercept_arr, obs.solver_diagnostics()
        )


def _solve_batch_impl(
    node: NodeModel,
    network: TorusNetworkModel,
    d: np.ndarray,
    s: np.ndarray,
    intercept_arr: np.ndarray,
    diag,
) -> BatchOperatingPoints:
    dims = network.dimensions
    size = network.message_size
    ncc = network.node_channel_contention
    second_moment = network._size_second_moment

    k_d = d / dims
    geometry = np.where(
        k_d > 1.0,
        ((k_d - 1.0) / k_d**2) * ((dims + 1) / dims),
        0.0,
    )
    saturation = 2.0 / (size * k_d)
    ceiling = np.minimum(saturation, 1.0 / size) if ncc else saturation

    # Algebraically regrouped network curve, hoisting every rate-free
    # factor out of the bisection loop:
    #   T_m(r) = (d + B) + c1 * rho/(1 - rho) + r*E[S^2]/(1 - r*B)
    # with rho = r * rho_slope and c1 = d * B * geometry (zero wherever
    # the local clamp applies, which also zeroes the contention term).
    rho_slope = size * k_d / 2.0
    contention_scale = d * size * geometry
    node_minus_network_const = intercept_arr + d + size

    def curve_gap(rate_arr: np.ndarray) -> np.ndarray:
        """Node-curve minus network-curve latency (requires rho < 1)."""
        rho = rate_arr * rho_slope
        gap = (
            s / rate_arr
            - node_minus_network_const
            - contention_scale * (rho / (1.0 - rho))
        )
        if ncc:
            gap -= rate_arr * second_moment / (1.0 - rate_arr * size)
        return gap

    rate = np.empty_like(d)

    # Fast path (mirrors the scalar solver): no contention terms at all,
    # so the network latency is the constant d + B and the intersection
    # is linear in r_m.
    linear = (geometry == 0.0) & (not ncc)
    if linear.any():
        lin_rate = s / (intercept_arr + (d + size))
        over = linear & (lin_rate >= saturation)
        if over.any():
            i = int(np.argmax(over))
            raise SaturationError(
                "clamped model predicts injection beyond channel capacity "
                f"(r_m = {lin_rate[i]:.6g} >= {saturation[i]:.6g}); "
                "the k_d < 1 clamp is not meaningful at this load"
            )
        rate[linear] = lin_rate[linear]

    bisect = ~linear
    if bisect.any():
        low = np.minimum(1e-12, ceiling * 1e-9)
        high = ceiling * (1.0 - 1e-9)
        gap_low = curve_gap(low)
        gap_high = curve_gap(high)
        bad_low = bisect & (gap_low < 0)
        if bad_low.any():
            i = int(np.argmax(bad_low))
            raise SaturationError(
                f"no feasible operating point: node curve below network "
                f"curve at r_m = {low[i]:.3g} (gap {gap_low[i]:.3g})"
            )
        bad_high = bisect & (gap_high > 0)
        if bad_high.any():
            i = int(np.argmax(bad_high))
            raise SaturationError(
                "operating point lies beyond network saturation "
                f"(gap at ceiling = {gap_high[i]:.3g}); reduce load or "
                "enable the contention terms"
            )

        # The scalar solver stops each lane once its bracket's relative
        # width reaches the tolerance; since the width halves per
        # iteration from ~the full bracket, no lane can converge before
        # ~ -log2(tolerance) iterations — the check is provably False
        # until then and is skipped for speed.
        earliest = max(0, int(-np.log2(_RELATIVE_TOLERANCE)) - 1)
        update = np.empty_like(d)
        converged_at = (
            np.zeros(d.size, dtype=np.int64) if diag is not None else None
        )
        for iteration in range(1, _MAX_ITERATIONS + 1):
            mid = 0.5 * (low + high)
            above = curve_gap(mid) > 0.0
            np.copyto(low, mid, where=above)
            np.copyto(high, mid, where=~above)
            if iteration >= earliest:
                np.subtract(high, low, out=update)
                done = update <= _RELATIVE_TOLERANCE * high
                if converged_at is not None:
                    np.copyto(
                        converged_at, iteration,
                        where=done & (converged_at == 0),
                    )
                if done.all():
                    break
        else:
            wide = (high - low) > _RELATIVE_TOLERANCE * high
            i = int(np.argmax(wide & bisect))
            raise ConvergenceError(
                "combined-model bisection failed to converge "
                f"(bracket [{low[i]}, {high[i]}])",
                residual=float(curve_gap(0.5 * (low + high))[i]),
            )
        midpoint = 0.5 * (low + high)
        rate[bisect] = midpoint[bisect]

    # Populate every OperatingPoint field at the solved rates.
    rho = rate * size * k_d / 2.0
    per_hop = np.where(
        geometry == 0.0, 1.0, 1.0 + (rho * size / (1.0 - rho)) * geometry
    )
    if ncc:
        rho_c = rate * size
        channel_delay = 2.0 * (
            rate * second_moment / (2.0 * (1.0 - rho_c))
        )
    else:
        channel_delay = np.zeros_like(rate)
    message_time = 1.0 / rate
    g = node.messages_per_transaction
    if diag is not None:
        width = np.zeros_like(rate)
        residual = np.zeros_like(rate)
        if bisect.any():
            np.copyto(width, (high - low) / high, where=bisect)
            np.copyto(residual, curve_gap(rate), where=bisect)
        for i in range(d.size):
            if linear[i]:
                diag.record(
                    "batch", "linear", float(d[i]),
                    message_rate=float(rate[i]),
                    utilization=float(rho[i]),
                )
            else:
                diag.record(
                    "batch", "bisection", float(d[i]),
                    iterations=int(converged_at[i]),
                    bracket_width=float(width[i]),
                    residual=float(residual[i]),
                    message_rate=float(rate[i]),
                    utilization=float(rho[i]),
                )
    return BatchOperatingPoints(
        message_rate=rate,
        message_latency=d * per_hop + size + channel_delay,
        per_hop_latency=per_hop,
        utilization=rho,
        node_channel_delay=channel_delay,
        distance=d,
        transaction_rate=rate / g,
        issue_time=g * message_time,
        transaction_latency=s * message_time - intercept_arr,
    )


def solve_quadratic(
    node: NodeModel,
    network: TorusNetworkModel,
    distance: float,
) -> OperatingPoint:
    """Closed-form solution of the Section 2.5 quadratic.

    Valid only for the model *without* the node-channel extension (the
    extension adds a second rational term and the polynomial degree
    rises).  With the local clamp active the network latency is constant
    and the quadratic degenerates to the same linear solution ``solve``
    uses.  Provided both as documentation of the paper's algebra and as an
    independent cross-check of the numeric solver.

    Degenerate corner: as ``k_d -> 1`` from above, Eq 14's geometry term
    vanishes and the fixed point may sit within floating-point noise of
    channel saturation; there the closed form can return the
    saturation-adjacent root while :func:`solve` (whose bracket stops a
    hair short of the ceiling) reports :class:`SaturationError`.  Both
    answers describe the same physics — a bandwidth-pinned point the
    base model cannot meaningfully resolve.
    """
    if network.node_channel_contention:
        raise ParameterError(
            "solve_quadratic applies to the base model only; build the "
            "network with node_channel_contention=False (or use solve())"
        )
    if not distance > 0:
        raise ParameterError(f"distance d must be positive, got {distance!r}")

    k_d = network.per_dimension_distance(distance)
    size = network.message_size
    geometry = network.contention_geometry(distance)
    sensitivity = node.sensitivity
    intercept = node.intercept

    if geometry == 0.0:
        return solve(node, network, distance)

    # Derivation: equate  s/r - K = (d + B) + d * beta * B * (a r)/(1 - a r)
    # with a = B * k_d / 2, multiply through by r (1 - a r):
    #   A r^2 + Bq r + Cq = 0
    half_service = size * k_d / 2.0
    quad_a = half_service * (
        distance * geometry * size - distance - size - intercept
    )
    quad_b = distance + size + intercept + sensitivity * half_service
    quad_c = -sensitivity

    saturation = network.saturation_rate(distance)
    root, branch = _physical_root(quad_a, quad_b, quad_c, saturation)
    diag = obs.solver_diagnostics()
    if root is None:
        if diag is not None:
            diag.record("quadratic", "saturation", distance, utilization=1.0)
        raise SaturationError(
            "quadratic has no root in (0, saturation); no feasible "
            f"operating point at d = {distance:.4g}"
        )
    point = _make_point(node, network, root, distance)
    if diag is not None:
        diag.record(
            "quadratic", branch, distance, message_rate=root,
            utilization=point.utilization,
        )
    return point


def _physical_root(
    quad_a: float, quad_b: float, quad_c: float, saturation: float
) -> Tuple[Optional[float], str]:
    """Root of ``A r**2 + B r + C`` strictly inside (0, saturation).

    Returns ``(root, branch)`` where ``branch`` names which solution
    branch produced the root — ``"linear"`` for the degenerate A = 0
    case, ``"root+"``/``"root-"`` for the two quadratic roots — so the
    convergence diagnostics can report which root selection fired.
    """
    if quad_a == 0.0:
        if quad_b == 0.0:
            return None, "degenerate"
        candidate = -quad_c / quad_b
        if 0.0 < candidate < saturation:
            return candidate, "linear"
        return None, "linear"
    discriminant = quad_b * quad_b - 4.0 * quad_a * quad_c
    if discriminant < 0.0:
        return None, "complex"
    sqrt_disc = discriminant**0.5
    # Cancellation-free form: (-B -+ sqrt)/2A subtracts nearly equal
    # numbers when |A C| << B**2 (e.g. a vanishing A), so take the
    # root without cancellation as q / A and its partner as C / q
    # (the roots multiply to C / A).
    q = -0.5 * (quad_b + math.copysign(sqrt_disc, quad_b))
    if q == 0.0:
        return None, "degenerate"
    if quad_b >= 0.0:
        root_plus, root_minus = quad_c / q, q / quad_a
    else:
        root_plus, root_minus = q / quad_a, quad_c / q
    for candidate, branch in (
        (root_plus, "root+"),
        (root_minus, "root-"),
    ):
        if 0.0 < candidate < saturation:
            return candidate, branch
    return None, "no-physical-root"


def open_loop(
    network: TorusNetworkModel,
    message_rate: float,
    distance: float,
) -> float:
    """Message latency at a *fixed* injection rate (Agarwal's usage).

    This is the no-feedback evaluation the paper contrasts against
    (Section 5): the latency the network would impose if nodes kept
    injecting at ``message_rate`` regardless of what they observe.
    Diverges (raises :class:`SaturationError`) beyond saturation, which is
    precisely the behavior the combined model's feedback eliminates.
    """
    return network.message_latency(message_rate, distance)
