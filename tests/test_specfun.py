"""Special-function tests against independent oracles.

Oracles, written before the implementations were trusted:
- low-order associated Legendre closed forms, typed in by hand;
- the Laguerre series  L_k^a(x) = sum_i (-1)^i C(k+a, k-i) x^i / i!;
- central finite differences for every derivative;
- scipy.special as an independently developed cross-implementation.
"""

import math

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from curvimom.errors import DomainError
from curvimom.specfun import (
    QuantumNumbers,
    assoc_laguerre,
    assoc_laguerre_deriv,
    assoc_legendre,
    assoc_legendre_deriv,
    legendre_parity,
)


def laguerre_series_oracle(k, a, x):
    # series definition, independent of any recurrence
    out = 0.0
    for i in range(k + 1):
        out += (-1) ** i * math.comb(k + a, k - i) * x**i / math.factorial(i)
    return out


def legendre_closed_forms(x):
    s = np.sqrt(1.0 - x * x)
    return {
        (0, 0): np.ones_like(x),
        (1, 0): x,
        (1, 1): -s,
        (2, 0): 0.5 * (3.0 * x * x - 1.0),
        (2, 1): -3.0 * x * s,
        (2, 2): 3.0 * (1.0 - x * x),
        (3, 0): 0.5 * (5.0 * x**3 - 3.0 * x),
        (3, 1): -1.5 * (5.0 * x * x - 1.0) * s,
        (3, 2): 15.0 * x * (1.0 - x * x),
        (3, 3): -15.0 * s**3,
    }


def central_fd(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def test_legendre_low_order_closed_forms():
    x = np.linspace(-1.0, 1.0, 41)
    for (L, M), expected in legendre_closed_forms(x).items():
        got = assoc_legendre(L, M, x)
        scale = max(np.max(np.abs(expected)), 1.0)
        assert np.max(np.abs(got - expected)) <= 1e-13 * scale, f"P_{L}^{M} mismatch"


def test_legendre_spec_values():
    assert assoc_legendre(1, 1, 0.0) == pytest.approx(-1.0, abs=1e-15)
    assert assoc_legendre(2, 0, 1.0) == 1.0
    assert assoc_legendre(2, 1, 0.5) == pytest.approx(-3.0 * 0.5 * math.sqrt(0.75), rel=1e-14)


def test_legendre_endpoints_finite():
    # (1 - x^2)^(M/2) kills every M > 0 function at the endpoints
    for L in range(11):
        for M in range(0, L + 1):
            for x in (-1.0, 1.0):
                val = assoc_legendre(L, M, x)
                assert np.isfinite(val)
                if M > 0:
                    assert val == 0.0
                else:
                    assert val == pytest.approx(x**L, abs=1e-12)


def test_legendre_negative_order_relation():
    x = np.linspace(-0.9, 0.9, 21)
    for L in range(1, 9):
        for M in range(1, L + 1):
            lhs = assoc_legendre(L, -M, x)
            ratio = (-1) ** M * math.factorial(L - M) / math.factorial(L + M)
            rhs = ratio * assoc_legendre(L, M, x)
            scale = max(np.max(np.abs(rhs)), 1e-30)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_legendre_vs_scipy():
    x = np.linspace(-0.98, 0.98, 37)
    for L in range(0, 26):
        for M in range(-L, L + 1):
            mine = assoc_legendre(L, M, x)
            ref = sps.lpmv(M, L, x)
            scale = max(np.max(np.abs(ref)), 1e-30)
            assert np.max(np.abs(mine - ref)) <= 1e-10 * scale, f"(L,M)=({L},{M})"


def test_legendre_parity_identity():
    x = np.linspace(-1.0, 1.0, 101)
    for L in range(11):
        for M in range(-L, L + 1):
            lhs, rhs = legendre_parity(L, M, x)
            scale = max(float(np.max(np.abs(lhs))), 1e-30)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


def test_legendre_deriv_vs_finite_difference():
    # the independent oracle for the derivative's index placement
    x = np.linspace(-0.97, 0.97, 33)
    h = 1e-6
    for L in range(0, 11):
        for M in range(-L, L + 1):
            fd = central_fd(lambda t: assoc_legendre(L, M, t), x, h)
            dv = assoc_legendre_deriv(L, M, x)
            scale = max(np.max(np.abs(dv)), 1.0)
            assert np.max(np.abs(fd - dv)) <= 5e-7 * scale, f"(L,M)=({L},{M})"


def test_legendre_deriv_recurrence_residual():
    # (x^2-1) P' = L x P_L - (L+M) P_{L-1}, degree lowered, order kept
    x = np.linspace(-0.995, 0.995, 101)
    for L in range(11):
        for M in range(-L, L + 1):
            lhs = (x * x - 1.0) * assoc_legendre_deriv(L, M, x)
            rhs = L * x * assoc_legendre(L, M, x)
            if L - 1 >= abs(M):
                rhs = rhs - (L + M) * assoc_legendre(L - 1, M, x)
            scale = max(np.max(np.abs(rhs)), 1e-30)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


@st.composite
def degree_order_point(draw):
    L = draw(st.integers(0, 12))
    M = draw(st.integers(-L, L))
    x = draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    return L, M, x


@settings(max_examples=300, deadline=None)
@given(degree_order_point())
def test_legendre_deriv_is_the_recurrence_of_two_legendre_calls(case):
    # one climb gives both P_L^M and P_{L-1}^M: the derivative must be the
    # degree-lowering formula on two separate assoc_legendre calls, bit for bit
    L, M, x = case
    p_lm1 = assoc_legendre(L - 1, M, x) if L - 1 >= abs(M) else 0.0
    expected = (L * x * assoc_legendre(L, M, x) - (L + M) * p_lm1) / (x * x - 1.0)
    got = assoc_legendre_deriv(L, M, x)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (got, expected)


def test_legendre_deriv_spec_value():
    got = assoc_legendre_deriv(1, 1, 0.0)
    # P_1^1 = -sqrt(1-x^2), derivative at 0 is 0
    assert got == pytest.approx(0.0, abs=1e-14)
    got = assoc_legendre_deriv(2, 0, 0.3)
    assert got == pytest.approx(3.0 * 0.3, rel=1e-13)


def test_legendre_domain_errors():
    with pytest.raises(DomainError):
        assoc_legendre(2, 3, 0.5)
    with pytest.raises(DomainError):
        assoc_legendre(-1, 0, 0.5)
    with pytest.raises(DomainError):
        assoc_legendre(2, 1, 1.5)
    with pytest.raises(DomainError):
        assoc_legendre(2, 1, np.array([0.0, 1.0000001]))
    with pytest.raises(DomainError):
        assoc_legendre_deriv(2, 1, 1.0)
    with pytest.raises(DomainError):
        assoc_legendre_deriv(2, 1, -1.0)


def test_legendre_large_degree_stays_finite():
    x = np.linspace(-0.999, 0.999, 11)
    for L in (30, 50):
        vals = assoc_legendre(L, L, x)
        assert np.all(np.isfinite(vals))
        vals = assoc_legendre(L, L // 2, x)
        assert np.all(np.isfinite(vals))


def test_laguerre_against_series_oracle():
    xs = [0.0, 0.3, 1.0, 2.7, 8.0]
    for k in range(0, 9):
        for a in range(0, 7):
            for x in xs:
                ref = laguerre_series_oracle(k, a, x)
                got = assoc_laguerre(k, a, x)
                assert got == pytest.approx(ref, rel=1e-11, abs=1e-11), f"(k,a,x)=({k},{a},{x})"


def test_laguerre_spec_values():
    assert assoc_laguerre(0, 0, 5.0) == 1.0
    assert assoc_laguerre(1, 1, 2.0) == pytest.approx(0.0, abs=1e-15)
    # L_2^1(x) = 3 - 3x + x^2/2
    assert assoc_laguerre(2, 1, 1.0) == pytest.approx(0.5, rel=1e-14)


def test_laguerre_vs_scipy():
    x = np.linspace(0.0, 20.0, 41)
    for k in range(0, 10):
        for a in range(0, 8):
            ref = sps.eval_genlaguerre(k, a, x)
            got = assoc_laguerre(k, a, x)
            scale = max(np.max(np.abs(ref)), 1.0)
            assert np.max(np.abs(got - ref)) <= 1e-11 * scale


def test_laguerre_deriv():
    x = np.linspace(0.1, 10.0, 17)
    h = 1e-6
    for k in range(0, 7):
        for a in range(0, 5):
            fd = central_fd(lambda t: assoc_laguerre(k, a, t), x, h)
            dv = assoc_laguerre_deriv(k, a, x)
            scale = max(np.max(np.abs(dv)), 1.0)
            assert np.max(np.abs(fd - dv)) <= 1e-7 * scale
    assert assoc_laguerre_deriv(0, 3, 2.0) == 0.0


def test_laguerre_domain_errors():
    with pytest.raises(DomainError):
        assoc_laguerre(-1, 0, 1.0)
    with pytest.raises(DomainError):
        assoc_laguerre(2, -1, 1.0)
    with pytest.raises(DomainError):
        assoc_laguerre(2.5, 0, 1.0)


def test_spherical_harmonic_known_values(spherical_harmonic):
    theta, phi = 0.7, 1.3
    assert spherical_harmonic(0, 0, theta, phi) == pytest.approx(
        1.0 / math.sqrt(4.0 * math.pi), rel=1e-14
    )
    # Y_1^0 = sqrt(3/4pi) cos(theta)
    assert spherical_harmonic(1, 0, theta, phi) == pytest.approx(
        math.sqrt(3.0 / (4.0 * math.pi)) * math.cos(theta), rel=1e-14
    )
    # Y_1^1 = -sqrt(3/8pi) sin(theta) e^(i phi):  Condon-Shortley once, not twice
    expected = -math.sqrt(3.0 / (8.0 * math.pi)) * math.sin(theta) * np.exp(1j * phi)
    assert spherical_harmonic(1, 1, theta, phi) == pytest.approx(expected, rel=1e-14)
    # Y_1^{-1} = +sqrt(3/8pi) sin(theta) e^(-i phi)
    expected = math.sqrt(3.0 / (8.0 * math.pi)) * math.sin(theta) * np.exp(-1j * phi)
    assert spherical_harmonic(1, -1, theta, phi) == pytest.approx(expected, rel=1e-14)


def test_spherical_harmonic_vs_scipy(spherical_harmonic):
    thetas = np.linspace(0.05, math.pi - 0.05, 9)
    phis = np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False)
    if hasattr(sps, "sph_harm_y"):
        ref_fn = lambda L, M, th, ph: sps.sph_harm_y(L, M, th, ph)
    else:
        ref_fn = lambda L, M, th, ph: sps.sph_harm(M, L, ph, th)
    for L in range(0, 9):
        for M in range(-L, L + 1):
            for th in thetas:
                for ph in phis:
                    mine = spherical_harmonic(L, M, th, ph)
                    ref = complex(ref_fn(L, M, th, ph))
                    assert mine == pytest.approx(ref, rel=1e-10, abs=1e-12), f"(L,M)=({L},{M})"


def test_spherical_harmonic_conjugation_symmetry(spherical_harmonic):
    # Y_L^{-M} = (-1)^M conj(Y_L^M); fails if the phase were doubled
    theta, phi = 1.1, 0.4
    for L in range(0, 7):
        for M in range(1, L + 1):
            lhs = spherical_harmonic(L, -M, theta, phi)
            rhs = (-1) ** M * np.conj(spherical_harmonic(L, M, theta, phi))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_quantum_numbers_validation():
    QuantumNumbers(1, 0, 0)
    QuantumNumbers(4, 3, -3)
    with pytest.raises(DomainError):
        QuantumNumbers(0, 0, 0)
    with pytest.raises(DomainError):
        QuantumNumbers(2, 2, 0)
    with pytest.raises(DomainError):
        QuantumNumbers(2, 1, 2)
    with pytest.raises(DomainError):
        QuantumNumbers(2, -1, 0)


def test_scalar_and_array_shapes_agree(spherical_harmonic):
    x = np.array([-0.5, 0.0, 0.5])
    arr = assoc_legendre(3, 2, x)
    for xi, v in zip(x, arr):
        assert assoc_legendre(3, 2, float(xi)) == v
    assert isinstance(assoc_legendre(3, 2, 0.5), float)
    assert isinstance(assoc_laguerre(2, 1, 0.5), float)
    assert isinstance(spherical_harmonic(2, 1, 0.5, 0.5), complex)
