"""Analysis layer: reality contracts, defect laws, hydrogen identities.

Every expected number here is either a direct hand computation
(1/(n^2 a0), the closed-form moments) or a second, independent quadrature
route (the defect law checked against <g> computed separately).
"""

import math

import numpy as np
import pytest

from curvimom.errors import DomainError, PreconditionError, UnsupportedAxisError
from curvimom.geometry import (
    make_cartesian,
    make_cylindrical,
    make_plane_polar,
    make_spherical,
    preset_systems,
)
from curvimom.analysis import (
    cartesian_reality_check,
    ci_uniqueness_demo,
    drift_expectation,
    expectation,
    force_balance,
    hermiticity_defect,
    inv_r2_closed_form,
    inv_r3_closed_form,
    momentum_unit,
    naive_ehrenfest_residual,
    p_theta_spectrum_scan,
    radial_moment,
    reality_tolerance,
    run_check_suites,
)
from curvimom.operators import canonical_momentum, naive_momentum
from curvimom.quadrature import QuadratureConfig
from curvimom.specfun import QuantumNumbers
from curvimom.states import (
    ATOMIC,
    FactorFunction,
    PhysicalConstants,
    SeparableState,
    hydrogen_state,
    random_bound_trial,
)


def test_expectation_requires_normalized_state():
    state = hydrogen_state(QuantumNumbers(1, 0, 0))
    denorm = SeparableState(
        factors=state.factors,
        system=state.system,
        quantum_numbers=state.quantum_numbers,
        normalized=False,
        radial_scale=state.radial_scale,
    )
    with pytest.raises(PreconditionError):
        expectation(canonical_momentum(state.system, 0), denorm)


def test_expectation_evaluates_each_other_axis_twice():
    # full and half order only: the boundary term reuses the full-order norms
    state = hydrogen_state(QuantumNumbers(3, 2, 1))
    calls = [0, 0, 0]

    def counted(axis, ev):
        def evaluate(q):
            calls[axis] += 1
            return ev(q)

        return evaluate

    factors = tuple(
        FactorFunction(counted(axis, f.evaluate), f.derivative)
        for axis, f in enumerate(state.factors)
    )
    counted_state = SeparableState(
        factors=factors, system=state.system, radial_scale=state.radial_scale
    )
    rep = expectation(canonical_momentum(state.system, 0), counted_state)
    assert calls[1:] == [2, 2]
    assert rep.value == expectation(canonical_momentum(state.system, 0), state).value


def test_hydrogen_canonical_momenta_are_real():
    sph = make_spherical()
    ops = [canonical_momentum(sph, axis) for axis in range(3)]
    for (n, L, M) in [(1, 0, 0), (2, 1, 0), (3, 1, -1), (4, 3, 2)]:
        state = hydrogen_state(QuantumNumbers(n, L, M))
        rep_r = expectation(ops[0], state)
        assert abs(rep_r.value) <= 1e-10, (n, L, M)
        rep_t = expectation(ops[1], state)
        assert abs(rep_t.value) <= 1e-10, (n, L, M)
        rep_p = expectation(ops[2], state)
        assert rep_p.value.real == pytest.approx(M * 1.0, abs=1e-11)
        assert abs(rep_p.value.imag) <= 1e-12
        for rep in (rep_r, rep_t, rep_p):
            assert abs(rep.boundary_term) <= 1e-12


def test_naive_radial_defect_two_routes():
    # route 1: hand formula hbar / (n^2 a0); route 2: hbar <g_r> = hbar <1/r>
    sph = make_spherical()
    naive = naive_momentum(sph, 0)
    for n in range(1, 5):
        for L in range(0, n):
            state = hydrogen_state(QuantumNumbers(n, L, 0))
            defect = hermiticity_defect(naive, state)
            assert defect == pytest.approx(1.0 / n**2, rel=1e-10), (n, L)
            bulk = drift_expectation(state, 0)
            assert defect == pytest.approx(bulk, rel=1e-10), (n, L)


def test_naive_polar_defect_matches_drift_average():
    sph = make_spherical()
    naive = naive_momentum(sph, 1)
    for (n, L, M) in [(2, 1, 1), (3, 2, 1), (4, 3, 3), (3, 2, 0)]:
        state = hydrogen_state(QuantumNumbers(n, L, M))
        defect = hermiticity_defect(naive, state)
        bulk = drift_expectation(state, 1)
        assert defect == pytest.approx(bulk, abs=1e-10), (n, L, M)


def test_trial_defect_law_on_every_linear_axis():
    # Im<p_naive> = hbar <g> for bound trial states, axis by axis
    cases = [
        (make_spherical(), 0),
        (make_cylindrical(), 0),
        (make_cylindrical(), 2),
        (make_cartesian(), 1),
        (make_plane_polar(), 0),
    ]
    for system, axis in cases:
        for seed in (3, 4):
            trial = random_bound_trial(system, seed)
            rep = expectation(naive_momentum(system, axis), trial)
            bulk = drift_expectation(trial, axis)
            tol = max(10.0 * rep.quadrature_error, 1e-10)
            assert abs(rep.hermiticity_defect - bulk) <= tol, (system.name, axis, seed)
            can = expectation(canonical_momentum(system, axis), trial)
            assert abs(can.hermiticity_defect) <= reality_tolerance(can, "linear"), (
                system.name,
                axis,
                seed,
            )


def test_reality_tolerance_floor_and_scaling():
    state = hydrogen_state(QuantumNumbers(1, 0, 0))
    rep = expectation(canonical_momentum(state.system, 0), state)
    assert reality_tolerance(rep, "linear") >= 1e-9 * momentum_unit("linear")
    si = PhysicalConstants(hbar=1.054571817e-34, m=9.1093837015e-31, e2=2.3070775523e-28)
    assert momentum_unit("linear", si) == pytest.approx(si.hbar / si.a0)
    assert momentum_unit("angular", si) == si.hbar


def test_closed_form_moments_match_quadrature():
    for n in range(1, 6):
        for L in range(0, n):
            qn = QuantumNumbers(n, L, 0)
            r2 = radial_moment(qn, -2)
            assert r2 == pytest.approx(inv_r2_closed_form(qn), rel=1e-10), (n, L)
            assert inv_r2_closed_form(qn) == pytest.approx(
                1.0 / (n**3 * (L + 0.5)), rel=1e-14
            )
            if L >= 1:
                r3 = radial_moment(qn, -3)
                assert r3 == pytest.approx(inv_r3_closed_form(qn), rel=1e-10), (n, L)
                assert inv_r3_closed_form(qn) == pytest.approx(
                    1.0 / (n**3 * L * (L + 0.5) * (L + 1)), rel=1e-14
                )
    with pytest.raises(DomainError):
        inv_r3_closed_form(QuantumNumbers(2, 0, 0))


def test_force_balance_holds_per_level():
    for n in range(2, 6):
        for L in range(1, n):
            report = force_balance(QuantumNumbers(n, L, 0))
            assert abs(report.relative_residual) <= 1e-10, (n, L)
            assert report.centrifugal == pytest.approx(report.coulomb, rel=1e-10)
    with pytest.raises(DomainError):
        force_balance(QuantumNumbers(3, 0, 0))


def test_naive_ehrenfest_residual_is_negative_coulomb_pull():
    for (n, L) in [(1, 0), (2, 1), (3, 2), (4, 1)]:
        res = naive_ehrenfest_residual(QuantumNumbers(n, L, 0))
        assert res < 0.0
        assert res == pytest.approx(-1.0 / (n**3 * (L + 0.5)), rel=1e-9), (n, L)
    # hand value: (1,0,0) gives -e^2 <1/r^2> = -2 in atomic units
    assert naive_ehrenfest_residual(QuantumNumbers(1, 0, 0)) == pytest.approx(-2.0, rel=1e-9)


def test_p_theta_scan_covers_all_m_and_stays_flat():
    rows = p_theta_spectrum_scan(4)
    assert len(rows) == 25  # sum of (2L+1) for L <= 4
    seen = {(row.L, row.M) for row in rows}
    assert (0, 0) in seen and (4, -4) in seen and (4, 4) in seen
    worst = max(abs(row.value) for row in rows)
    assert worst <= 1e-9
    with pytest.raises(DomainError):
        p_theta_spectrum_scan(11)
    with pytest.raises(DomainError):
        p_theta_spectrum_scan(-1)


def test_cartesian_reality_and_traveling_wave():
    rep0 = cartesian_reality_check(seed=9)
    assert abs(rep0.value) <= 1e-10
    k = 0.7
    repk = cartesian_reality_check(seed=9, wavenumber=k)
    assert repk.value.real == pytest.approx(k, rel=1e-10)
    assert abs(repk.value.imag) <= 1e-10
    # determinism
    again = cartesian_reality_check(seed=9, wavenumber=k)
    assert again.value == repk.value


def test_ci_uniqueness_demo_recovers_zero_constant():
    sph = make_spherical()
    a, b = ci_uniqueness_demo(sph, 0, 101, 202)
    assert a <= 1e-8 and b <= 1e-8
    a2, b2 = ci_uniqueness_demo(sph, 0, 101, 202)
    assert (a2, b2) == (a, b)
    cart = make_cartesian()
    a3, b3 = ci_uniqueness_demo(cart, 0, 7, 8)
    assert a3 <= 1e-8 and b3 <= 1e-8
    with pytest.raises(UnsupportedAxisError):
        ci_uniqueness_demo(sph, 1, 1, 2)
    with pytest.raises(UnsupportedAxisError):
        ci_uniqueness_demo(sph, 2, 1, 2)


def test_defect_law_carries_physical_units():
    si = PhysicalConstants(hbar=1.054571817e-34, m=9.1093837015e-31, e2=2.3070775523e-28)
    state = hydrogen_state(QuantumNumbers(2, 0, 0), si)
    naive = naive_momentum(make_spherical(), 0, si)
    defect = hermiticity_defect(naive, state)
    assert defect == pytest.approx(si.hbar / (4.0 * si.a0), rel=1e-9)
    can = canonical_momentum(make_spherical(), 0, si)
    rep = expectation(can, state)
    assert abs(rep.hermiticity_defect) <= reality_tolerance(rep, "linear", si)


def test_run_check_suites_all_green():
    results = run_check_suites(reality_trials=6)
    assert [r.name for r in results] == [
        "legendre-parity",
        "legendre-recurrence",
        "legendre-fd-derivative",
        "normalization",
        "commutators",
        "reality-scan",
        "ci-uniqueness",
    ]
    for r in results:
        assert r.passed, (r.name, r.failures, r.worst)
        assert r.checks > 0
        assert r.worst <= 1.0


def test_degraded_orders_fail_honestly():
    cfg = QuadratureConfig(radial_order=8, theta_order=8, phi_order=8)
    results = run_check_suites(cfg, reality_trials=6)
    assert any(not r.passed for r in results)


def test_expectation_quadrature_error_is_small_for_eigenstates():
    state = hydrogen_state(QuantumNumbers(3, 2, 1))
    rep = expectation(canonical_momentum(make_spherical(), 0), state)
    assert rep.quadrature_error <= 1e-10


def test_radial_moment_positive_power():
    # <r> on the ground state is 1.5 a0, a classic hand value
    assert radial_moment(QuantumNumbers(1, 0, 0), 1) == pytest.approx(1.5, rel=1e-12)
    assert radial_moment(QuantumNumbers(2, 1, 0), 0) == pytest.approx(1.0, rel=1e-12)
