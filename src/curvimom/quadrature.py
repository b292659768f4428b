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

``coordinate_rule`` folds the weight w(q) into every rule it returns, so a
1-D integral is one weighted sum.  Separable integrals are tabulated on
``axis_rule`` (the full- then the half-order nodes of a coordinate as one
array, one weight row per order), summed by ``contract`` and combined by
``combine_axes``.  Both rules are cached per (coordinate, order) at unit
scale in bounded caches; a line or half-line scale (or k of them) is applied per call.

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

from .errors import ConfigurationError, DomainError
from .geometry import CoordinateSpec, CoordinateSystem

__all__ = [
    "QuadratureRule",
    "AxisRule",
    "QuadratureConfig",
    "gauss_legendre",
    "half_line_rule",
    "line_rule",
    "periodic_rule",
    "coordinate_rule",
    "coordinate_integral",
    "axis_rule",
    "axis_rules",
    "contract",
    "contract_rows",
    "combine_axes",
    "integrate_separable",
]

# Newton step tolerance for Legendre root polishing
_ROOT_TOL = 1e-15


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights for one coordinate; both arrays are made read-only.

    Rules from ``coordinate_rule`` carry the coordinate weight w(q) in their
    weights; the topology rules (``half_line_rule`` and friends) do not.
    """

    nodes: np.ndarray
    weights: np.ndarray
    exactness_degree: int | None = None

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
    return QuadratureRule(nodes, weights, exactness_degree=2 * order - 1)


def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1] with a bitwise-symmetric node set.

    Only the positive roots are solved for; the negative half is their
    mirror image, which makes odd integrands cancel to rounding level.
    Rules are cached per order and shared, so their arrays are read-only.

    Raises:
        DomainError: if ``order`` < 1.
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise DomainError(f"quadrature order must be an integer >= 1, got {order!r}")
    return _gauss_rule(int(order))


def half_line_rule(order: int, scale: float = 1.0) -> QuadratureRule:
    """Rule for (0, inf) via r = scale * t/(1 - t), t = (x + 1)/2.

    ``scale`` sets the node cluster (half the nodes fall below it); pick it
    near the decay length of the integrand.

    Raises:
        DomainError: if ``scale`` <= 0 or ``order`` < 1.
    """
    if not scale > 0.0:
        raise DomainError(f"half-line scale must be positive, got {scale!r}")
    base = gauss_legendre(order)
    t = 0.5 * (base.nodes + 1.0)
    nodes = scale * (t / (1.0 - t))
    weights = scale * (base.weights * 0.5 / (1.0 - t) ** 2)
    return QuadratureRule(nodes, weights)


def line_rule(order: int, scale: float = 1.0) -> QuadratureRule:
    """Rule for (-inf, inf): a half-line rule mirrored about zero.

    The result carries 2 * order nodes, symmetric to the bit.
    """
    half = half_line_rule(order, scale)
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
    if not isinstance(points, (int, np.integer)) or points < 1:
        raise DomainError(f"periodic rule needs >= 1 points, got {points!r}")
    h = 2.0 * math.pi / points
    nodes = (np.arange(points, dtype=float) + 0.5) * h
    weights = np.full(points, h)
    return QuadratureRule(nodes, weights)


@lru_cache(maxsize=128)
def _unit_rule(spec: CoordinateSpec, order: int) -> QuadratureRule:
    # line and half-line rules at scale 1 without w(q), which _at_scale folds
    # in after scaling; every compact rule already carries w(q)
    if spec.topology == "line":
        return line_rule(order)
    if spec.topology == "half-line":
        return half_line_rule(order)
    if spec.topology == "compact-periodic":
        if (spec.lower, spec.upper) != (0.0, 2.0 * math.pi):
            raise ConfigurationError(
                f"periodic coordinate {spec.name!r} must span (0, 2 pi)"
            )
        base = periodic_rule(order)
        nodes, weights = base.nodes, base.weights
    else:
        base = gauss_legendre(order)
        if spec.weight.ident == "sin" and (spec.lower, spec.upper) == (0.0, math.pi):
            # x = cos(theta): nodes arccos(x_i), weights unchanged, sin absorbed
            return QuadratureRule(np.arccos(base.nodes), base.weights, base.exactness_degree)
        halfwidth = 0.5 * (spec.upper - spec.lower)
        nodes = spec.lower + (base.nodes + 1.0) * halfwidth
        weights = base.weights * halfwidth
    return QuadratureRule(nodes, weights * spec.weight.value(nodes), base.exactness_degree)


def coordinate_rule(spec: CoordinateSpec, order: int, scale: float = 1.0) -> QuadratureRule:
    """The rule for one coordinate; its weights already include w(q).

    Rules are cached per (spec, order) at unit scale; the line and
    half-line ``scale`` is applied on each call, so the cache does not grow
    with the scales asked for.
    """
    return _at_scale(spec, _unit_rule(spec, order), scale)


def _at_scale(spec: CoordinateSpec, base: QuadratureRule, scale) -> QuadratureRule:
    # a cached unit rule at ``scale`` on a line or half-line, w(q) folded in; k scales give k rows
    if spec.topology not in ("line", "half-line"):
        return base
    rows = isinstance(scale, (tuple, np.ndarray)) and np.ndim(scale) > 0
    s = np.asarray(scale, dtype=float)[:, None] if rows else scale
    if not ((s > 0.0).all() if rows else s > 0.0):
        raise DomainError(f"map scale must be positive, got {scale!r}")
    nodes = s * base.nodes
    w = spec.weight.value(nodes)
    if isinstance(base, AxisRule):  # (2, n) weights, one row per order
        return AxisRule(nodes, (s[..., None] if rows else s) * base.weights * w[..., None, :], full=base.full)
    return QuadratureRule(nodes, s * base.weights * w)


@dataclass(frozen=True)
class QuadratureConfig:
    """Per-topology orders plus the half-line/line map scale."""

    radial_order: int = 120
    theta_order: int = 64
    phi_order: int = 32
    radial_scale: float = 1.0

    def __post_init__(self) -> None:
        for label, order in (
            ("radial_order", self.radial_order),
            ("theta_order", self.theta_order),
            ("phi_order", self.phi_order),
        ):
            if not isinstance(order, (int, np.integer)) or order < 1:
                raise ConfigurationError(f"{label} must be an integer >= 1, got {order!r}")
        if not self.radial_scale > 0.0:
            raise ConfigurationError(f"radial_scale must be positive, got {self.radial_scale!r}")

    def order_for(self, spec: CoordinateSpec) -> int:
        if spec.topology in ("line", "half-line"):
            return self.radial_order
        if spec.topology == "compact-nonperiodic":
            return self.theta_order
        return self.phi_order


def coordinate_integral(spec: CoordinateSpec, integrand: Callable, order: int, scale=1.0):
    """1-D integral of integrand(q) * w(q) dq over one coordinate, a complex;
    an integrand giving k rows of values (k scales, or a compact axis's shared
    nodes) gives the k integrals as an array, each row summed as one would be."""
    rule = _at_scale(spec, _unit_rule(spec, order), scale)
    total = (rule.weights * np.asarray(integrand(rule.nodes))).sum(-1)
    return complex(total) if total.ndim == 0 else total


@dataclass(frozen=True, eq=False)
class AxisRule(QuadratureRule):
    """One coordinate's full- and half-order rules on one node array.

    ``nodes`` holds the ``full`` full-order nodes, then the half-order ones;
    ``weights`` is (2, n): row 0 the full-order weights and row 1 the
    half-order ones, each zero on the other order's nodes.
    """

    full: int = 0


@lru_cache(maxsize=128)
def _stacked_unit_rule(spec: CoordinateSpec, order: int) -> AxisRule:
    # full- then half-order unit rules on one array; w(q) as in _unit_rule
    full, half = _unit_rule(spec, order), _unit_rule(spec, max(order // 2, 2))
    n = len(full.nodes)
    weights = np.zeros((2, n + len(half.nodes)))
    weights[0, :n], weights[1, n:] = full.weights, half.weights
    return AxisRule(np.concatenate([full.nodes, half.nodes]), weights, full=n)


def axis_rule(spec: CoordinateSpec, order: int, scale=1.0) -> AxisRule:
    """One coordinate's stacked rule, elementwise as ``coordinate_rule`` builds
    it; k scales give (k, n) nodes and (k, 2, n) weights on a line or half-line."""
    return _at_scale(spec, _stacked_unit_rule(spec, order), scale)


def axis_rules(system: CoordinateSystem, config: QuadratureConfig) -> list[AxisRule]:
    """The stacked full- and half-order rule of each coordinate of ``system``."""
    return [axis_rule(spec, config.order_for(spec), config.radial_scale) for spec in system.coords]


def contract(rule: AxisRule, table: np.ndarray) -> tuple[complex, complex]:
    """(full-order, half-order) weighted sums of values on ``rule.nodes``: ``contract_rows``'s one pair."""
    return contract_rows(rule, table)[0]


def contract_rows(rule: AxisRule, table: np.ndarray) -> list[tuple[complex, complex]]:
    """The (full, half) pair of each row of a table, (n,) or (k, n): one
    product with the weight matrix (or the k matrices), summed along the
    last axis, so each row's sums are those of that row alone."""
    sums = (rule.weights * table[..., None, :]).sum(-1).reshape(-1, 2).tolist()
    return [(complex(full), complex(half)) for full, half in sums]


def combine_axes(pairs: Sequence[tuple[complex, complex]]) -> tuple[complex, float]:
    """Product of the full-order integrals, with its error estimate.

    The estimate sums, over coordinates, the full-minus-half-order
    difference of that coordinate's integral times the magnitudes of the
    others.  It is a practical bound, validated on the analytic test set,
    not a proof.
    """
    fulls = [full for full, _ in pairs]
    error = sum(
        abs(full - half) * math.prod(abs(f) for j, f in enumerate(fulls) if j != i)
        for i, (full, half) in enumerate(pairs)
    )
    return complex(math.prod(fulls)), float(error)


def integrate_separable(
    system: CoordinateSystem,
    integrands: Sequence[Callable],
    config: QuadratureConfig | None = None,
) -> tuple[complex, float]:
    """Integral of prod_i f_i(q_i) against the volume weight prod_i w_i.

    Returns:
        (value, error_estimate), as ``combine_axes`` forms them.

    Raises:
        ConfigurationError: if the integrand count differs from the system
            dimension.
    """
    if len(integrands) != system.dim:
        raise ConfigurationError(
            f"{len(integrands)} integrands for {system.dim}-coordinate system {system.name!r}"
        )
    rules = axis_rules(system, config if config is not None else QuadratureConfig())
    return combine_axes([contract(rule, f(rule.nodes)) for f, rule in zip(integrands, rules)])
