"""Momentum operators built from the measure-factor ansatz.

The canonical momentum along coordinate q_i is

    p_i = -i hbar ( d/dq_i + g_i(q_i) ),

with drift g_i = w_i'/(2 w_i) induced by the coordinate weight; the naive
operator drops the drift.  Hermiticity leaves no free additive constant:
``ci_uniqueness_demo`` recovers any such constant as zero.  Applied to a
separable state, either operator only touches the factor on its own axis,
so the result stays separable.  Operators act in natural units (hbar = 1,
lengths in a0): an expectation is in hbar/a0 on a linear axis and in hbar
on an angular one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, UnsupportedStateError
from .geometry import CoordinateSystem, measure_factor
from .states import FactorFunction, PhysicalConstants, SeparableState

__all__ = [
    "MomentumOperator",
    "momentum_unit",
    "canonical_momentum",
    "naive_momentum",
    "apply",
    "operator_applied_state",
    "coordinate_scaled_state",
    "commutator_qp_residual",
    "commutator_pp_residual",
    "l_squared_expectation",
]

def _zero_drift(q):
    return q * 0.0


@dataclass(frozen=True, eq=False)
class MomentumOperator:
    """-i (d/dq + drift(q)) along one coordinate axis, with no additive constant
    (``ci_uniqueness_demo`` shows it is zero), in natural units: on a linear axis
    q is in a0 and an expectation in hbar/a0; on an angular axis it is in hbar."""

    axis: int
    drift: Callable
    kind: str


def momentum_unit(kind: str, constants: PhysicalConstants) -> float:
    """The physical unit of a natural momentum: hbar/a0 on linear axes, hbar on angular."""
    return constants.hbar * constants.length_unit(-1) if kind == "linear" else constants.hbar


def canonical_momentum(system: CoordinateSystem, axis: int) -> MomentumOperator:
    """Canonical momentum for one axis, drift from the coordinate weight."""
    spec = system.coords[axis]
    return MomentumOperator(axis=axis, drift=measure_factor(spec).drift, kind=spec.kind)


def naive_momentum(system: CoordinateSystem, axis: int) -> MomentumOperator:
    """Plain -i hbar d/dq along one axis (no drift)."""
    return replace(canonical_momentum(system, axis), drift=_zero_drift)


def apply(op: MomentumOperator, state: SeparableState, point: Sequence) -> complex | np.ndarray:
    """(p psi)(point) for a separable state, in natural units; ``point`` holds
    per-coordinate scalars, or equal-length arrays for a batch of points.

    The drift goes first, so a zero of the weight raises SingularityError;
    in a batch, one such point raises for the whole call.
    """
    if len(point) != state.system.dim:
        raise ConfigurationError(
            f"point has {len(point)} components, expected {state.system.dim}"
        )
    q = point[op.axis]
    factor = state.factors[op.axis]
    g = op.drift(q)
    axis_part = factor.derivative(q) + g * factor.evaluate(q)
    rest = (f.evaluate(qj) for j, (f, qj) in enumerate(zip(state.factors, point)) if j != op.axis)
    return -1j * axis_part * math.prod(rest, start=1 + 0j)


def operator_applied_state(op: MomentumOperator, state: SeparableState) -> SeparableState:
    """p acting on a separable state, returned as a separable state.

    The new axis factor is -i (f' + g f), in natural units.  Its derivative would
    need f'', which no factor carries, so asking for it raises
    UnsupportedStateError; the other factors keep their analytic
    derivatives.
    """
    factor = state.factors[op.axis]
    ev, dv = factor.evaluate, factor.derivative

    def evaluate(q):
        return -1j * (np.asarray(dv(q)) + op.drift(q) * np.asarray(ev(q)))

    def derivative(q):
        raise UnsupportedStateError(
            "a momentum-applied factor has no derivative: it would need f''"
        )

    factors = list(state.factors)
    factors[op.axis] = FactorFunction(evaluate, derivative, scale=factor.scale)
    return replace(state, factors=tuple(factors), quantum_numbers=None, normalized=False)


def coordinate_scaled_state(state: SeparableState, axis: int) -> SeparableState:
    """q_axis * psi as a separable state (product rule gives the derivative)."""
    factor = state.factors[axis]
    ev, dv = factor.evaluate, factor.derivative

    def evaluate(q):
        return np.asarray(q, dtype=float) * np.asarray(ev(q))

    def derivative(q):
        return np.asarray(ev(q)) + np.asarray(q, dtype=float) * np.asarray(dv(q))

    factors = list(state.factors)
    factors[axis] = FactorFunction(evaluate, derivative, scale=factor.scale)
    return replace(state, factors=tuple(factors), quantum_numbers=None, normalized=False)


def commutator_qp_residual(
    system: CoordinateSystem, i: int, j: int, state: SeparableState, point: Sequence
) -> complex | np.ndarray:
    """([q_i, p_j] - i hbar delta_ij) psi at a point (or a batch, as in
    ``apply``), in natural units; zero up to rounding.

    Holds for any drift, so the canonical operator is used.
    """
    p = canonical_momentum(system, j)
    first = point[i] * apply(p, state, point)
    second = apply(p, coordinate_scaled_state(state, i), point)
    delta = 1.0 if i == j else 0.0
    return first - second - 1j * delta * state.evaluate(point)


def commutator_pp_residual(
    system: CoordinateSystem, i: int, j: int, state: SeparableState, point: Sequence
) -> complex | np.ndarray:
    """[p_i, p_j] psi at a point (or a batch, as in ``apply``), in natural
    units; distinct axes commute exactly.

    For i == j the residual is exactly zero and nothing is applied.  For
    i != j each operator only differentiates the other's untouched factor.
    """
    if i == j:
        return np.zeros(np.shape(point[i]), dtype=complex)[()]
    p_i = canonical_momentum(system, i)
    p_j = canonical_momentum(system, j)
    first = apply(p_i, operator_applied_state(p_j, state), point)
    second = apply(p_j, operator_applied_state(p_i, state), point)
    return first - second


def l_squared_expectation(state: SeparableState) -> float:
    """<L^2> = L(L+1), in units of hbar^2, for an angular-momentum eigenstate.

    Raises:
        UnsupportedStateError: if the state carries no quantum numbers.
    """
    if state.quantum_numbers is None:
        raise UnsupportedStateError(
            "L^2 expectation needs a state with hydrogenic quantum numbers"
        )
    L = state.quantum_numbers.L
    return float(L * (L + 1))
