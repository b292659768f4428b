"""Acceptance gate: one test per advertised guarantee, tolerances pinned.

Each criterion is restated in the test docstring with its exact bound.
Oracles are hand-typed closed forms, second quadrature routes, or scipy
reference values; nothing is compared against its own defining code path.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.special import lpmv

import curvimom
from curvimom.analysis import (
    cartesian_reality_check,
    ci_uniqueness_demo,
    drift_expectation,
    expectation,
    force_balance,
    naive_ehrenfest_residual,
    p_theta_spectrum_scan,
    radial_moment,
)
from curvimom.geometry import make_cartesian, make_spherical, preset_systems
from curvimom.operators import (
    canonical_momentum,
    commutator_pp_residual,
    commutator_qp_residual,
    naive_momentum,
)
from curvimom.specfun import QuantumNumbers, assoc_legendre, assoc_legendre_deriv
from curvimom.states import hydrogen_state, random_bound_trial, state_overlap


def hydrogen_levels(n_max):
    for n in range(1, n_max + 1):
        for L in range(0, n):
            for M in range(-L, L + 1):
                yield QuantumNumbers(n, L, M)


def test_criterion_01_radial_reality_and_naive_defect():
    """|<p_r>| <= 1e-9 hbar/a0 for n <= 4; naive Im<p_r> = hbar/(n^2 a0) to 1e-8."""
    sph = make_spherical()
    p_r = canonical_momentum(sph, 0)
    p_r_naive = naive_momentum(sph, 0)
    for qn in hydrogen_levels(4):
        state = hydrogen_state(qn)
        rep = expectation(p_r, state)
        assert abs(rep.value) <= 1e-9, qn
        defect = expectation(p_r_naive, state).hermiticity_defect
        expected = 1.0 / qn.n**2
        assert abs(defect - expected) <= 1e-8 * expected, qn
        # independent route: quadrature of hbar <1/r> through the drift average
        oracle = drift_expectation(state, 0)
        assert abs(defect - oracle) <= 1e-8 * abs(oracle), qn


def test_criterion_02_polar_momentum_vanishes():
    """|<p_theta>| <= 1e-9 hbar for all L <= 6, |M| <= L, including M = 0."""
    rows = p_theta_spectrum_scan(6)
    assert len(rows) == 49
    assert any(row.M == 0 for row in rows)
    for row in rows:
        assert abs(row.value) <= 1e-9, (row.L, row.M)


def test_criterion_03_azimuthal_momentum_spectrum():
    """<p_phi> = M hbar to 1e-10 relative for |M| <= 5."""
    sph = make_spherical()
    p_phi = canonical_momentum(sph, 2)
    for M in range(-5, 6):
        L = abs(M)
        state = hydrogen_state(QuantumNumbers(L + 1, L, M))
        value = expectation(p_phi, state).value
        tol = 1e-10 * max(1.0, abs(M))
        assert abs(value - M) <= tol, M


def test_criterion_04_force_balance_and_naive_ehrenfest():
    """Centrifugal equals Coulomb to 1e-8; naive residual = -e^2/(n^3 a0^2 (L+1/2))."""
    for n in range(2, 6):
        for L in range(1, n):
            report = force_balance(QuantumNumbers(n, L, 0))
            assert abs(report.relative_residual) <= 1e-8, (n, L)
            res = naive_ehrenfest_residual(QuantumNumbers(n, L, 0))
            expected = -1.0 / (n**3 * (L + 0.5))
            assert res < 0.0, (n, L)
            assert abs(res - expected) <= 1e-8 * abs(expected), (n, L)


def test_criterion_05_radial_moments_match_closed_forms():
    """Quadrature <1/r^2>, <1/r^3> match closed forms to 1e-9 for n <= 5."""
    for n in range(2, 6):
        for L in range(1, n):
            qn = QuantumNumbers(n, L, 0)
            inv_r2 = 1.0 / (n**3 * (L + 0.5))
            inv_r3 = 1.0 / (n**3 * L * (L + 0.5) * (L + 1.0))
            assert abs(radial_moment(qn, -2) - inv_r2) <= 1e-9 * inv_r2, (n, L)
            assert abs(radial_moment(qn, -3) - inv_r3) <= 1e-9 * inv_r3, (n, L)


def test_criterion_06_commutator_contracts():
    """[q_i, p_j] = i hbar delta_ij and [p_i, p_j] = 0 to 1e-7 |psi| on 100 samples per system."""
    for system in preset_systems().values():
        rng = np.random.default_rng(17)
        samples = 0
        for seed in range(10):
            state = random_bound_trial(system, 1000 + seed)
            for _ in range(10):
                point = []
                for spec in system.coords:
                    if spec.topology == "half-line":
                        point.append(float(rng.uniform(0.2, 2.5)))
                    elif spec.topology == "line":
                        point.append(float(rng.uniform(-1.5, 1.5)))
                    elif spec.topology == "compact-periodic":
                        point.append(float(rng.uniform(0.05, 6.2)))
                    else:
                        point.append(float(rng.uniform(0.25, math.pi - 0.25)))
                point = tuple(point)
                samples += 1
                bound = 1e-7 * abs(state.evaluate(point))
                for i in range(system.dim):
                    for j in range(system.dim):
                        qp = commutator_qp_residual(system, i, j, state, point)
                        assert abs(qp) <= bound, (system.name, i, j, point)
                        if j > i:
                            pp = commutator_pp_residual(system, i, j, state, point)
                            assert abs(pp) <= bound, (system.name, i, j, point)
        assert samples == 100


def test_criterion_07_additive_constant_uniqueness():
    """Recovered constants <= 1e-8 natural units for 10 independent seed pairs."""
    sph = make_spherical()
    for k in range(10):
        a, b = ci_uniqueness_demo(sph, 0, 2 * k + 1, 2 * k + 2)
        assert a <= 1e-8 and b <= 1e-8, k


def test_criterion_08_legendre_identities_and_norms():
    """Parity and derivative-recurrence residuals <= 1e-10 for L <= 10; norms = 1 to 1e-10."""
    x = np.linspace(-0.99, 0.99, 201)
    for L in range(0, 11):
        for M in range(0, L + 1):
            # parity: P(-x) = (-1)^(L+M) P(x), both sides from scipy
            ref = lpmv(M, L, x)
            flipped = lpmv(M, L, -x)
            mine = assoc_legendre(L, M, x)
            scale = max(float(np.max(np.abs(ref))), 1.0)
            assert np.max(np.abs(mine - ref)) <= 1e-10 * scale, (L, M)
            assert np.max(np.abs(mine * (-1.0) ** (L + M) - flipped)) <= 1e-10 * scale
            # degree-lowering recurrence with P values from scipy
            lhs = (x * x - 1.0) * assoc_legendre_deriv(L, M, x)
            rhs = L * x * ref
            if L - 1 >= M:
                rhs = rhs - (L + M) * lpmv(M, L - 1, x)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale, (L, M)
    for qn in hydrogen_levels(4):
        norm = state_overlap(hydrogen_state(qn), hydrogen_state(qn)).real
        assert abs(norm - 1.0) <= 1e-10, qn


def test_criterion_09_cartesian_baseline():
    """Real trial states give |<p_x>| <= 1e-10; phase twist moves it to hbar k."""
    for seed in (1, 2, 3, 4, 5):
        rep = cartesian_reality_check(seed)
        assert abs(rep.value) <= 1e-10, seed
    for k in (0.3, 0.7, 1.2):
        rep = cartesian_reality_check(9, wavenumber=k)
        assert abs(rep.value - k) <= 1e-9, k


def test_criterion_10_check_command_is_byte_deterministic():
    """`curvimom check --seed S` emits byte-identical output across runs."""
    cmd = [sys.executable, "-m", "curvimom", "check", "--seed", "7"]
    # the child runs the package these tests import, installed or not
    path = [str(Path(curvimom.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    first = subprocess.run(cmd, capture_output=True, check=True, env=env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty report
    assert first.returncode == 0 and second.returncode == 0
