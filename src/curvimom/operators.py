"""Momentum operators built from the measure-factor ansatz.

The canonical momentum along coordinate q_i is

    p_i = -i hbar ( d/dq_i + g_i(q_i) + c_i ),

with drift g_i = w_i'/(2 w_i) induced by the coordinate weight; the naive
operator drops the drift.  Applied to a separable state, either operator
only touches the factor on its own axis, so the result stays separable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, UnsupportedStateError
from .geometry import CoordinateSystem, measure_factor
from .states import ATOMIC, FactorFunction, PhysicalConstants, SeparableState

__all__ = [
    "MomentumOperator",
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
    """-i hbar (d/dq + drift(q) + constant) along one coordinate axis."""

    axis: int
    drift: Callable
    constant: float
    hbar: float
    kind: str
    label: str


def canonical_momentum(
    system: CoordinateSystem,
    axis: int,
    constants: PhysicalConstants = ATOMIC,
    constant: float = 0.0,
) -> MomentumOperator:
    """Canonical momentum for one axis, drift from the coordinate weight."""
    spec = system.coords[axis]
    mf = measure_factor(spec)
    return MomentumOperator(
        axis=axis,
        drift=mf.drift,
        constant=float(constant),
        hbar=constants.hbar,
        kind=spec.kind,
        label="canonical",
    )


def naive_momentum(
    system: CoordinateSystem, axis: int, constants: PhysicalConstants = ATOMIC
) -> MomentumOperator:
    """Plain -i hbar d/dq along one axis (no drift)."""
    spec = system.coords[axis]
    return MomentumOperator(
        axis=axis,
        drift=_zero_drift,
        constant=0.0,
        hbar=constants.hbar,
        kind=spec.kind,
        label="naive",
    )


def _rest_product(state: SeparableState, axis: int, point: Sequence[float]) -> complex:
    out = complex(1.0)
    for j, (factor, q) in enumerate(zip(state.factors, point)):
        if j != axis:
            out *= complex(factor.evaluate(q))
    return out


def apply(op: MomentumOperator, state: SeparableState, point: Sequence[float]) -> complex:
    """(p psi)(point) for a separable state; may raise SingularityError
    where the drift blows up."""
    if len(point) != state.system.dim:
        raise ConfigurationError(
            f"point has {len(point)} components, expected {state.system.dim}"
        )
    q = point[op.axis]
    factor = state.factors[op.axis]
    g = complex(op.drift(q))
    axis_part = complex(factor.derivative(q)) + (g + op.constant) * complex(factor.evaluate(q))
    return -1j * op.hbar * axis_part * _rest_product(state, op.axis, point)


def operator_applied_state(op: MomentumOperator, state: SeparableState) -> SeparableState:
    """p acting on a separable state, returned as a separable state.

    The new axis factor is -i hbar (f' + (g + c) f).  Its derivative would
    need f'', which no factor carries, so asking for it raises
    UnsupportedStateError; the other factors keep their analytic
    derivatives.
    """
    factor = state.factors[op.axis]
    ev, dv = factor.evaluate, factor.derivative
    drift, c, hbar = op.drift, op.constant, op.hbar

    def evaluate(q):
        return -1j * hbar * (np.asarray(dv(q)) + (drift(q) + c) * np.asarray(ev(q)))

    def derivative(q):
        raise UnsupportedStateError(
            "a momentum-applied factor has no derivative: it would need f''"
        )

    factors = list(state.factors)
    factors[op.axis] = FactorFunction(evaluate, derivative)
    return SeparableState(
        factors=tuple(factors),
        system=state.system,
        quantum_numbers=None,
        normalized=False,
        radial_scale=state.radial_scale,
    )


def coordinate_scaled_state(state: SeparableState, axis: int) -> SeparableState:
    """q_axis * psi as a separable state (product rule gives the derivative)."""
    factor = state.factors[axis]
    ev, dv = factor.evaluate, factor.derivative

    def evaluate(q):
        return np.asarray(q, dtype=float) * np.asarray(ev(q))

    def derivative(q):
        return np.asarray(ev(q)) + np.asarray(q, dtype=float) * np.asarray(dv(q))

    factors = list(state.factors)
    factors[axis] = FactorFunction(evaluate, derivative)
    return SeparableState(
        factors=tuple(factors),
        system=state.system,
        quantum_numbers=None,
        normalized=False,
        radial_scale=state.radial_scale,
    )


def commutator_qp_residual(
    system: CoordinateSystem,
    i: int,
    j: int,
    state: SeparableState,
    point: Sequence[float],
    constants: PhysicalConstants = ATOMIC,
) -> complex:
    """([q_i, p_j] - i hbar delta_ij) psi at a point; zero up to rounding.

    Holds for any drift, so the canonical operator is used.
    """
    p = canonical_momentum(system, j, constants)
    first = point[i] * apply(p, state, point)
    second = apply(p, coordinate_scaled_state(state, i), point)
    delta = 1.0 if i == j else 0.0
    return first - second - 1j * constants.hbar * delta * state.evaluate(point)


def commutator_pp_residual(
    system: CoordinateSystem,
    i: int,
    j: int,
    state: SeparableState,
    point: Sequence[float],
    constants: PhysicalConstants = ATOMIC,
) -> complex:
    """[p_i, p_j] psi at a point; distinct axes commute exactly.

    For i == j the residual is exactly zero and nothing is applied.  For
    i != j each operator only differentiates the other's untouched factor.
    """
    if i == j:
        return 0j
    p_i = canonical_momentum(system, i, constants)
    p_j = canonical_momentum(system, j, constants)
    first = apply(p_i, operator_applied_state(p_j, state), point)
    second = apply(p_j, operator_applied_state(p_i, state), point)
    return first - second


def l_squared_expectation(
    state: SeparableState, constants: PhysicalConstants = ATOMIC
) -> float:
    """<L^2> = hbar^2 L(L+1) for an angular-momentum eigenstate.

    Raises:
        UnsupportedStateError: if the state carries no quantum numbers.
    """
    if state.quantum_numbers is None:
        raise UnsupportedStateError(
            "L^2 expectation needs a state with hydrogenic quantum numbers"
        )
    L = state.quantum_numbers.L
    return constants.hbar**2 * L * (L + 1)
