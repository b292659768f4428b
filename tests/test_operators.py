"""Operators: pointwise action, drift shift, commutators, L^2 shortcut."""

import cmath
import math

import numpy as np
import pytest

from curvimom.errors import SingularityError, UnsupportedStateError
from curvimom.geometry import make_cartesian, make_spherical, preset_systems
from curvimom.operators import (
    apply,
    canonical_momentum,
    commutator_pp_residual,
    commutator_qp_residual,
    coordinate_scaled_state,
    l_squared_expectation,
    naive_momentum,
    operator_applied_state,
)
from curvimom.specfun import QuantumNumbers
from curvimom.states import ATOMIC, hydrogen_state, random_bound_trial


def test_radial_momentum_on_ground_state_closed_form():
    # psi = 2 e^{-r} Y00: p_r psi = -i(d/dr + 1/r)psi = -i(-1 + 1/r)psi
    state = hydrogen_state(QuantumNumbers(1, 0, 0))
    sph = make_spherical()
    p_r = canonical_momentum(sph, 0)
    for r in (0.5, 1.0, 2.0, 3.7):
        point = (r, 1.1, 0.4)
        got = apply(p_r, state, point)
        expected = -1j * (-1.0 + 1.0 / r) * state.evaluate(point)
        assert got == pytest.approx(expected, rel=1e-13, abs=1e-15), r
    # at r = 1 the drift cancels the decay exactly
    assert abs(apply(p_r, state, (1.0, 1.1, 0.4))) <= 1e-15


def test_drift_shift_between_canonical_and_naive():
    # canonical minus naive acting on psi is exactly -i hbar g_i psi
    rng = np.random.default_rng(7)
    for system in preset_systems().values():
        state = random_bound_trial(system, 21)
        for _ in range(6):
            point = []
            for spec in system.coords:
                if spec.topology == "half-line":
                    point.append(float(rng.uniform(0.3, 2.5)))
                elif spec.topology == "line":
                    point.append(float(rng.uniform(-1.5, 1.5)))
                elif spec.topology == "compact-periodic":
                    point.append(float(rng.uniform(0.1, 6.0)))
                else:
                    point.append(float(rng.uniform(0.3, math.pi - 0.3)))
            for axis in range(system.dim):
                can = canonical_momentum(system, axis)
                nai = naive_momentum(system, axis)
                diff = apply(can, state, point) - apply(nai, state, point)
                g = can.drift(point[axis])
                expected = -1j * ATOMIC.hbar * g * state.evaluate(point)
                scale = max(abs(expected), 1e-9)
                assert abs(diff - expected) <= 1e-12 * scale, (system.name, axis)


def test_azimuthal_momentum_eigenrelation():
    sph = make_spherical()
    p_phi = canonical_momentum(sph, 2)
    for M in range(-5, 6):
        L = max(abs(M), 1) if M != 0 else 0
        n = L + 1
        state = hydrogen_state(QuantumNumbers(n, L, M))
        for point in [(1.0, 0.9, 0.2), (2.5, 2.0, 4.4)]:
            got = apply(p_phi, state, point)
            expected = M * ATOMIC.hbar * state.evaluate(point)
            assert got == pytest.approx(expected, abs=1e-13 * max(1.0, abs(M))), M


def test_operator_applied_state_matches_pointwise_apply():
    sph = make_spherical()
    state = hydrogen_state(QuantumNumbers(2, 1, 0))
    for axis in range(3):
        op = canonical_momentum(sph, axis)
        mapped = operator_applied_state(op, state)
        assert mapped.normalized is False
        for point in [(0.8, 0.7, 0.1), (3.0, 2.2, 5.1)]:
            assert mapped.evaluate(point) == pytest.approx(
                apply(op, state, point), rel=1e-12, abs=1e-15
            )


def test_operator_applied_factor_has_no_derivative():
    # f'' is not available, so the p-applied factor refuses instead of guessing
    state = hydrogen_state(QuantumNumbers(1, 0, 0))
    mapped = operator_applied_state(canonical_momentum(make_spherical(), 0), state)
    with pytest.raises(UnsupportedStateError):
        mapped.factors[0].derivative(1.3)
    # the untouched factors keep their analytic derivatives
    assert mapped.factors[1].derivative is state.factors[1].derivative


def test_coordinate_scaled_state():
    state = hydrogen_state(QuantumNumbers(2, 1, 1))
    scaled = coordinate_scaled_state(state, 0)
    point = (1.7, 1.0, 0.3)
    assert scaled.evaluate(point) == pytest.approx(1.7 * state.evaluate(point), rel=1e-14)
    # derivative: (r R)' = R + r R'
    r = 1.7
    base = complex(state.factors[0].evaluate(r))
    dbase = complex(state.factors[0].derivative(r))
    assert complex(scaled.factors[0].derivative(r)) == pytest.approx(base + r * dbase, rel=1e-13)


def sample_points(system, rng, count):
    points = []
    for _ in range(count):
        point = []
        for spec in system.coords:
            if spec.topology == "half-line":
                point.append(float(rng.uniform(0.2, 3.0)))
            elif spec.topology == "line":
                point.append(float(rng.uniform(-2.0, 2.0)))
            elif spec.topology == "compact-periodic":
                point.append(float(rng.uniform(0.05, 6.2)))
            else:
                point.append(float(rng.uniform(0.2, math.pi - 0.2)))
        points.append(tuple(point))
    return points


def test_position_momentum_commutator():
    rng = np.random.default_rng(19)
    for system in preset_systems().values():
        state = random_bound_trial(system, 31)
        for point in sample_points(system, rng, 4):
            scale = abs(state.evaluate(point))
            for i in range(system.dim):
                for j in range(system.dim):
                    res = commutator_qp_residual(system, i, j, state, point)
                    assert abs(res) <= 1e-7 * max(scale, 1e-6), (system.name, i, j)


def test_momentum_momentum_commutator():
    rng = np.random.default_rng(23)
    for system in preset_systems().values():
        state = random_bound_trial(system, 37)
        for point in sample_points(system, rng, 4):
            scale = abs(state.evaluate(point))
            for i in range(system.dim):
                res = commutator_pp_residual(system, i, i, state, point)
                assert res == 0.0, (system.name, i)  # identical ops, exact zero
                for j in range(i + 1, system.dim):
                    res = commutator_pp_residual(system, i, j, state, point)
                    assert abs(res) <= 1e-7 * max(scale, 1e-6), (system.name, i, j)


def test_l_squared_expectation():
    assert l_squared_expectation(hydrogen_state(QuantumNumbers(3, 2, -1))) == pytest.approx(6.0)
    assert l_squared_expectation(hydrogen_state(QuantumNumbers(1, 0, 0))) == 0.0
    with pytest.raises(UnsupportedStateError):
        l_squared_expectation(random_bound_trial(make_spherical(), 2))


def test_apply_raises_at_measure_zeros():
    sph = make_spherical()
    state = hydrogen_state(QuantumNumbers(2, 1, 0))
    with pytest.raises(SingularityError):
        apply(canonical_momentum(sph, 0), state, (0.0, 1.0, 1.0))
    with pytest.raises(SingularityError):
        apply(canonical_momentum(sph, 1), state, (1.0, 0.0, 1.0))
    # the naive operator has no drift, so r = 0 is fine for it
    value = apply(naive_momentum(sph, 0), state, (0.0, 1.0, 1.0))
    assert cmath.isfinite(value.real) and cmath.isfinite(value.imag)


def test_constant_offset_shifts_action():
    cart = make_cartesian()
    state = random_bound_trial(cart, 41)
    base = canonical_momentum(cart, 1)
    shifted = canonical_momentum(cart, 1, constant=0.25)
    point = (0.3, -0.6, 1.1)
    diff = apply(shifted, state, point) - apply(base, state, point)
    expected = -1j * ATOMIC.hbar * 0.25 * state.evaluate(point)
    assert diff == pytest.approx(expected, rel=1e-12)
