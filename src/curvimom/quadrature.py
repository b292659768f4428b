"""Quadrature rules for the coordinate topologies used by the package.

One rule family per topology:

- line and half-line: Gauss-Legendre nodes pushed through the rational map
  r = scale * t / (1 - t), t = (x + 1)/2, Jacobian folded into the weights;
- compact periodic: uniform trapezoid weights at half-step offsets (nodes
  stay strictly inside the interval, trigonometric exactness is unchanged);
- compact non-periodic with weight sin(q) on (0, pi): the substitution
  x = cos(theta) absorbs the weight, so the rule integrates against
  sin(theta) d(theta) exactly for polynomial integrands in cos(theta);
- any other compact interval: affine-mapped Gauss-Legendre.

Every coordinate has one scaled rule, ``axis_rule(spec, order, scale)``: the
full- then the half-order nodes as one array, one weight row per order, with the
weight w(q) folded in, so a 1-D integral is one weighted sum.  Its unit rule is
cached per (coordinate, order) in one bounded cache; a line or half-line scale
(or k of them, each a factor's own) is applied per call, and a config holds only
orders.  Separable integrals are tabulated on it, summed by ``contract_rows``
into (k, 2) arrays of (full, half) sums, one per coordinate, multiplied by
``axes_product`` into k values, and given k estimates by ``combine_axes``;
``coordinate_rule`` and ``coordinate_integral`` read its full-order rows.

On a line or half-line, ``hermite_rule(spec, width, centre)`` is laid out and
mapped as that rule is, but is the Gauss rule for the weight e^(-u^2),
u = (q - centre)/width, with e^(u_i^2) folded into the weights: Gauss-Hermite
(``hermgauss``) on a line, and on a half-line the half-range Hermite rule, whose
recurrence comes from the discretised Stieltjes procedure on the unit half-line
rule of order 120 and whose nodes come from Golub-Welsch.  It is built once per
topology, at the constant ``HERMITE_ORDER`` = 8 full- and 4 half-order nodes:
exact to degree 15 and 7 in u times e^(-u^2), which covers the norms and
momentum sums of a polynomial-times-Gaussian factor (degree <= 7).  The factor
picks its rule; any other integrand, such as a general moment kernel or a
product with a differently placed or twisted factor, is summed on the mapped rule.

Gauss-Legendre nodes are solved by Newton iteration from the Chebyshev-like
seed cos(pi (i - 1/4)/(n + 1/2)) and then mirrored about zero, so the node
set is symmetric to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, is_integer
from .geometry import CoordinateSpec, CoordinateSystem

__all__ = [
    "QuadratureRule",
    "AxisRule",
    "QuadratureConfig",
    "DEFAULT_CONFIG",
    "ORDER_RANGE",
    "HERMITE_ORDER",
    "gauss_legendre",
    "half_line_rule",
    "line_rule",
    "periodic_rule",
    "coordinate_rule",
    "coordinate_integral",
    "axis_rule",
    "hermite_rule",
    "contract_rows",
    "axes_product",
    "combine_axes",
    "integrate_separable",
]

# Newton step tolerance for Legendre root polishing
_ROOT_TOL = 1e-15
# the verified orders: at order 2 the half order equals the full one, so the error estimate
# compares a rule with itself; the node solve is O(order^2), and 4096 is exact to rounding
ORDER_RANGE = (8, 4096)
# a hermite rule's full order at every config: the half-range rule's moments x^0..x^(2m-1)
# are within 5.3e-15 of exact up to m = 16, and 5.2e-12 at m = 24
HERMITE_ORDER = 8


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights for one coordinate; both arrays are made read-only.

    ``coordinate_rule``'s are the full-order rows of ``axis_rule``, w(q) in their
    weights; the topology rules (``half_line_rule`` and friends) carry no w(q).
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def _legendre_and_deriv(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # three-term recurrence for P_n and its derivative at |x| < 1
    p_prev = np.ones_like(x)
    p_curr = x * 1.0
    for j in range(2, n + 1):
        p_curr, p_prev = ((2 * j - 1) * x * p_curr - (j - 1) * p_prev) / j, p_curr
    dp = n * (x * p_curr - p_prev) / (x * x - 1.0)
    return p_curr, dp


@lru_cache(maxsize=128)
def _gauss_rule(order: int) -> QuadratureRule:
    half = order // 2
    if half > 0:
        i = np.arange(1, half + 1, dtype=float)
        x = np.cos(math.pi * (i - 0.25) / (order + 0.5))
        for _ in range(60):
            p, dp = _legendre_and_deriv(order, x)
            dx = p / dp
            x = x - dx
            if np.max(np.abs(dx)) <= _ROOT_TOL:
                break
        p, dp = _legendre_and_deriv(order, x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        pos = x[::-1]  # ascending, all > 0
        w_pos = w[::-1]
    else:
        pos = np.empty(0)
        w_pos = np.empty(0)

    if order % 2 == 1:
        _, dp0 = _legendre_and_deriv(order, np.asarray(0.0))
        nodes = np.concatenate([-pos[::-1], [0.0], pos])
        weights = np.concatenate([w_pos[::-1], [2.0 / float(dp0 * dp0)], w_pos])
    else:
        nodes = np.concatenate([-pos[::-1], pos])
        weights = np.concatenate([w_pos[::-1], w_pos])
    return QuadratureRule(nodes, weights)


def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1] with a bitwise-symmetric node set.

    Only the positive roots are solved for; the negative half is their
    mirror image, which makes odd integrands cancel to rounding level.
    Rules are cached per order and shared, so their arrays are read-only.

    Raises:
        DomainError: if ``order`` < 1.
    """
    if not is_integer(order) or order < 1:
        raise DomainError(f"quadrature order must be an integer >= 1, got {order!r}")
    return _gauss_rule(int(order))


def half_line_rule(order: int) -> QuadratureRule:
    """Unit-scale rule for (0, inf) via r = t/(1 - t), t = (x + 1)/2.

    Half the nodes fall below r = 1; ``axis_rule`` scales the rule to
    a map scale near the integrand's decay length.

    Raises:
        DomainError: if ``order`` < 1.
    """
    base = gauss_legendre(order)
    t = 0.5 * (base.nodes + 1.0)
    return QuadratureRule(t / (1.0 - t), base.weights * 0.5 / (1.0 - t) ** 2)


def line_rule(order: int) -> QuadratureRule:
    """Unit-scale rule for (-inf, inf): a half-line rule mirrored about zero.

    The result carries 2 * order nodes, symmetric to the bit.
    """
    half = half_line_rule(order)
    nodes = np.concatenate([-half.nodes[::-1], half.nodes])
    weights = np.concatenate([half.weights[::-1], half.weights])
    return QuadratureRule(nodes, weights)


def periodic_rule(points: int) -> QuadratureRule:
    """Uniform rule on (0, 2 pi) with nodes at half-step offsets.

    Exact for trigonometric polynomials e^{i m q} with |m| < points; the
    half-step offset keeps every node strictly inside the interval without
    touching that exactness.

    Raises:
        DomainError: if ``points`` < 1.
    """
    if not is_integer(points) or points < 1:
        raise DomainError(f"periodic rule needs >= 1 points, got {points!r}")
    h = 2.0 * math.pi / points
    nodes = (np.arange(points, dtype=float) + 0.5) * h
    weights = np.full(points, h)
    return QuadratureRule(nodes, weights)


def _hermite_rule(order: int, half_range: bool) -> QuadratureRule:
    # the order-node Gauss rule for e^(-x^2) on (-inf, inf), or on (0, inf), with e^(x_i^2) in
    # its weights so that it sums f(x) dx; the half-range recurrence by the discretised Stieltjes
    # procedure, in orthonormal polynomials, on the unit half-line rule, then Golub-Welsch
    if half_range:
        base = half_line_rule(120)
        x, mass = base.nodes, base.weights * np.exp(-base.nodes * base.nodes)
        alpha, beta = np.zeros(order), np.zeros(order + 1)
        beta[0] = mass.sum()
        p_prev, p = np.zeros_like(x), np.full_like(x, 1.0 / math.sqrt(beta[0]))
        for k in range(order):
            alpha[k] = np.sum(mass * x * p * p)
            q = (x - alpha[k]) * p - math.sqrt(beta[k]) * p_prev
            beta[k + 1] = np.sum(mass * q * q)
            p_prev, p = p, q / math.sqrt(beta[k + 1])
        off = np.sqrt(beta[1:order])
        nodes, vectors = np.linalg.eigh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
        weights = beta[0] * vectors[0] ** 2
    else:
        nodes, weights = np.polynomial.hermite.hermgauss(order)
    return QuadratureRule(nodes, weights * np.exp(nodes * nodes))


def _unit_rule(spec: CoordinateSpec, order: int) -> QuadratureRule:
    # line and half-line rules at scale 1 without w(q), which axis_rule folds
    # in after scaling; every compact rule already carries w(q)
    if spec.topology == "line":
        return line_rule(order)
    if spec.topology == "half-line":
        return half_line_rule(order)
    if spec.topology == "compact-periodic":  # the spec ensures (0, 2 pi)
        base = periodic_rule(order)
        nodes, weights = base.nodes, base.weights
    else:
        base = gauss_legendre(order)
        if spec.weight.ident == "sin" and (spec.lower, spec.upper) == (0.0, math.pi):
            # x = cos(theta): nodes arccos(x_i), weights unchanged, sin absorbed
            return QuadratureRule(np.arccos(base.nodes), base.weights)
        halfwidth = 0.5 * (spec.upper - spec.lower)
        nodes = spec.lower + (base.nodes + 1.0) * halfwidth
        weights = base.weights * halfwidth
    return QuadratureRule(nodes, weights * spec.weight.value(nodes))


def coordinate_rule(spec: CoordinateSpec, order: int, scale: float = 1.0) -> QuadratureRule:
    """The full-order rule for one coordinate, w(q) in its weights: the first
    ``full`` nodes and weight row 0 of ``axis_rule(spec, order, scale)``, as views."""
    rule = axis_rule(spec, order, scale)
    return QuadratureRule(rule.nodes[..., : rule.full], rule.weights[..., 0, : rule.full])


@dataclass(frozen=True)
class QuadratureConfig:
    """Per-topology quadrature orders, each in ``ORDER_RANGE``; the map scale belongs to the factor."""

    radial_order: int = 120
    theta_order: int = 64
    phi_order: int = 32

    def __post_init__(self) -> None:
        for label, order in (
            ("radial_order", self.radial_order),
            ("theta_order", self.theta_order),
            ("phi_order", self.phi_order),
        ):
            if not is_integer(order) or not ORDER_RANGE[0] <= order <= ORDER_RANGE[1]:
                raise ConfigurationError(f"{label} must be an integer in {list(ORDER_RANGE)}, got {order!r}")

    def order_for(self, spec: CoordinateSpec) -> int:
        if spec.topology in ("line", "half-line"):
            return self.radial_order
        if spec.topology == "compact-nonperiodic":
            return self.theta_order
        return self.phi_order


# the one default of every config parameter, and the orders of the rule each trial factor is normalised on
DEFAULT_CONFIG = QuadratureConfig()


def coordinate_integral(rule: "AxisRule", integrand: Callable):
    """1-D integral of integrand(q) * w(q) dq over one coordinate, a complex, on
    the full-order rows of an ``axis_rule``; an integrand giving k rows of values
    (k scales, or a compact axis's shared nodes) gives the k integrals as an
    array, each row summed as one would be."""
    nodes, weights = rule.nodes[..., : rule.full], rule.weights[..., 0, : rule.full]
    total = (weights * np.asarray(integrand(nodes))).sum(-1)
    return complex(total) if total.ndim == 0 else total


@dataclass(frozen=True, eq=False)
class AxisRule(QuadratureRule):
    """One coordinate's full- and half-order rules on one node array.

    ``nodes`` holds the ``full`` full-order nodes, then the half-order ones;
    ``weights`` is (2, n): row 0 the full-order weights and row 1 the
    half-order ones, each zero on the other order's nodes.
    """

    full: int = 0


def _stack(full: QuadratureRule, half: QuadratureRule) -> AxisRule:
    # full- then half-order rules on one array, one weight row each
    n = len(full.nodes)
    weights = np.zeros((2, n + len(half.nodes)))
    weights[0, :n], weights[1, n:] = full.weights, half.weights
    return AxisRule(np.concatenate([full.nodes, half.nodes]), weights, full=n)


@lru_cache(maxsize=128)
def _stacked_unit_rule(spec: CoordinateSpec, order: int) -> AxisRule:
    # w(q) as in _unit_rule
    return _stack(_unit_rule(spec, order), _unit_rule(spec, max(order // 2, 2)))


@lru_cache(maxsize=2)
def _stacked_hermite_rule(half_range: bool) -> AxisRule:
    # without w(q), as on a line or half-line
    return _stack(_hermite_rule(HERMITE_ORDER, half_range), _hermite_rule(HERMITE_ORDER // 2, half_range))


def _mapped(spec: CoordinateSpec, base: AxisRule, scale, centre=0.0) -> AxisRule:
    # a line or half-line rule taken to q = centre + scale x, w(q) folded in; k scales and centres give k rows
    s = np.asarray(scale, dtype=float)[..., None]
    if not (s > 0.0).all():
        raise DomainError(f"map scale must be positive, got {scale!r}")
    nodes = s * base.nodes + np.asarray(centre, dtype=float)[..., None]
    weights = s[..., None] * base.weights * spec.weight.value(nodes)[..., None, :]
    return AxisRule(nodes, weights, full=base.full)


def axis_rule(spec: CoordinateSpec, order: int, scale=1.0) -> AxisRule:
    """One coordinate's rule, w(q) folded in: the cached unit rule of (spec, order), shared as it
    is on a compact axis and taken to the map ``scale`` on each call on a line or half-line; k
    scales give (k, n) nodes and (k, 2, n) weights.

    Raises:
        DomainError: for a scale that is not positive.
    """
    base = _stacked_unit_rule(spec, order)
    return _mapped(spec, base, scale) if spec.topology in ("line", "half-line") else base


def hermite_rule(spec: CoordinateSpec, width, centre) -> AxisRule:
    """A line or half-line's hermite rule, ``HERMITE_ORDER`` full- and half-order nodes, taken to
    q = centre + width x as ``axis_rule`` takes its rule to a scale; k widths and centres give k rows.

    Raises:
        ConfigurationError: on a compact axis.
        DomainError: for a width that is not positive.
    """
    if spec.topology not in ("line", "half-line"):
        raise ConfigurationError(f"a hermite rule needs a line or half-line, {spec.name!r} is {spec.topology}")
    return _mapped(spec, _stacked_hermite_rule(spec.topology == "half-line"), width, centre)


def contract_rows(rule: AxisRule, table: np.ndarray) -> np.ndarray:
    """The (full, half) sums of each row of a table, (n,) or (k, n), as a (k, 2)
    array: one product with the weight matrix (or the k matrices), summed along
    the last axis, so each row's sums are those of that row alone."""
    return (rule.weights * table[..., None, :]).sum(-1).reshape(-1, 2)


def axes_product(pairs: Sequence[np.ndarray]) -> np.ndarray:
    """``combine_axes``' (k,) values alone: each member's product, in coordinate order from 1,
    of the full-order sums in one (k, 2) array of (full, half) sums per coordinate."""
    sums = np.asarray(pairs if len(pairs) else np.ones((0, 1, 2)), dtype=complex)  # no coordinates: one member
    return np.multiply.reduce(sums[..., 0], initial=1 + 0j)


def combine_axes(pairs: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Each member's ``axes_product`` with its error estimate: (k,) values and (k,)
    estimates, and (1, 0) from no coordinates.

    The estimate sums, over coordinates, the full-minus-half-order
    difference of that coordinate's integral times the magnitudes of the
    others.  It is a practical bound, validated on the analytic test set,
    not a proof.  Products run in coordinate order from 1, the others' magnitudes
    (``hypot``, as Python's ``abs``) before the difference, so the bits are those of
    scalar arithmetic wherever at most one coordinate's sums are complex.
    """
    sums = np.array(pairs if len(pairs) else np.ones((0, 1, 2)), dtype=complex)
    sums[..., 1] = sums[..., 0] - sums[..., 1]
    mags = np.hypot(sums.real, sums.imag)  # (axes, k, 2): |full| and |full - half|
    # row i: every coordinate's |full| in order, with 1 in place of coordinate i's
    others = np.where(np.eye(len(sums), dtype=bool)[..., None], 1.0, mags[..., 0]).prod(axis=1)
    return axes_product(sums), np.add.reduce(mags[..., 1] * others)


def integrate_separable(
    system: CoordinateSystem,
    integrands: Sequence[Callable],
    config: QuadratureConfig = DEFAULT_CONFIG,
    scale: float = 1.0,
) -> tuple[complex, float]:
    """Integral of prod_i f_i(q_i) against the volume weight prod_i w_i,
    with the line and half-line rules at map ``scale``.

    Returns:
        (value, error_estimate), a complex and a float, as ``combine_axes`` forms them.

    Raises:
        ConfigurationError: if the integrand count differs from the system
            dimension.
        DomainError: if ``scale`` <= 0.
    """
    if len(integrands) != system.dim:
        raise ConfigurationError(
            f"{len(integrands)} integrands for {system.dim}-coordinate system {system.name!r}"
        )
    rules = [axis_rule(spec, config.order_for(spec), scale) for spec in system.coords]
    value, error = combine_axes([contract_rows(rule, f(rule.nodes)) for f, rule in zip(integrands, rules)])
    return complex(value[0]), float(error[0])
