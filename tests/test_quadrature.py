"""Quadrature rules against analytic integrals and numpy's own solver."""

import math

import numpy as np
import pytest

from curvimom.errors import ConfigurationError, DomainError
from curvimom.geometry import (
    WEIGHTS,
    CoordinateSpec,
    CoordinateSystem,
    make_spherical,
    preset_systems,
)
from curvimom import quadrature
from curvimom.quadrature import (
    QuadratureConfig,
    axis_rules,
    contract,
    coordinate_integral,
    coordinate_rule,
    gauss_legendre,
    half_line_rule,
    integrate_separable,
    line_rule,
    periodic_rule,
)
from curvimom.specfun import QuantumNumbers
from curvimom.states import hydrogen_state


def test_gauss_legendre_matches_numpy():
    for order in (2, 3, 5, 8, 16, 31, 64, 120):
        rule = gauss_legendre(order)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(order)
        assert np.max(np.abs(rule.nodes - ref_nodes)) <= 1e-14
        assert np.max(np.abs(rule.weights - ref_weights)) <= 1e-14


def test_gauss_legendre_structure():
    for order in (1, 2, 7, 16, 33, 64):
        rule = gauss_legendre(order)
        assert len(rule.nodes) == order
        assert np.all(rule.weights > 0.0)
        assert np.all(rule.nodes > -1.0) and np.all(rule.nodes < 1.0)
        # mirrored construction: symmetric to the bit
        assert np.all(rule.nodes == -rule.nodes[::-1])
        assert np.all(rule.weights == rule.weights[::-1])
        assert abs(np.sum(rule.weights) - 2.0) <= 1e-12 * 2.0
        assert rule.exactness_degree == 2 * order - 1


def test_gauss_legendre_polynomial_exactness():
    for order in (3, 6, 11):
        rule = gauss_legendre(order)
        for k in range(0, 2 * order):
            got = float(np.sum(rule.weights * rule.nodes**k))
            exact = 0.0 if k % 2 == 1 else 2.0 / (k + 1)
            assert abs(got - exact) <= 1e-13, f"order={order} k={k}"


def test_half_line_exponential_convergence():
    # integral of exp(-r) over (0, inf) = 1; halving the error by >= 10x
    # per order doubling until the 1e-12 floor
    errors = []
    for order in (10, 20, 40, 80):
        rule = half_line_rule(order, 1.0)
        errors.append(abs(float(np.sum(rule.weights * np.exp(-rule.nodes))) - 1.0))
    for lo, hi in zip(errors[1:], errors[:-1]):
        if hi > 1e-12:
            assert lo <= hi / 10.0
    assert errors[-1] <= 1e-12


def test_half_line_gamma_integral():
    # integral of r^2 exp(-2r) = 2/8 = 1/4
    rule = half_line_rule(80, 1.0)
    got = float(np.sum(rule.weights * rule.nodes**2 * np.exp(-2.0 * rule.nodes)))
    assert got == pytest.approx(0.25, abs=1e-13)


def test_half_line_structure():
    rule = half_line_rule(40, scale=2.5)
    assert np.all(rule.nodes > 0.0)
    assert np.all(rule.weights > 0.0)
    assert np.all(np.diff(rule.nodes) > 0.0)
    # the map sends x = 0 to r = scale, so half the nodes sit below scale
    assert int(np.sum(rule.nodes < 2.5)) == 20
    with pytest.raises(DomainError):
        half_line_rule(40, scale=0.0)
    with pytest.raises(DomainError):
        half_line_rule(0, scale=1.0)


def test_line_rule_gaussian():
    rule = line_rule(60, 1.0)
    got = float(np.sum(rule.weights * np.exp(-rule.nodes**2)))
    assert got == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert np.all(rule.nodes == -rule.nodes[::-1])


def test_periodic_rule_orthogonality():
    rule = periodic_rule(32)
    assert len(rule.nodes) == 32
    assert np.all(rule.nodes > 0.0) and np.all(rule.nodes < 2.0 * math.pi)
    assert np.sum(rule.weights) == pytest.approx(2.0 * math.pi, rel=1e-15)
    for m in range(-5, 6):
        for mp in range(-5, 6):
            got = complex(np.sum(rule.weights * np.exp(1j * (m - mp) * rule.nodes)))
            exact = 2.0 * math.pi if m == mp else 0.0
            assert abs(got - exact) <= 1e-13
    with pytest.raises(DomainError):
        periodic_rule(0)


def test_polar_rule_absorbs_sine_weight():
    spec = make_spherical().coords[1]
    rule = coordinate_rule(spec, 24)
    assert np.all(rule.nodes > 0.0) and np.all(rule.nodes < math.pi)
    # integral of sin(theta) over (0, pi) = 2 with unit integrand
    assert float(np.sum(rule.weights)) == pytest.approx(2.0, rel=1e-14)
    # integral of cos^2(theta) sin(theta) = 2/3
    got = float(np.sum(rule.weights * np.cos(rule.nodes) ** 2))
    assert got == pytest.approx(2.0 / 3.0, rel=1e-13)


def test_truncated_ball_volume():
    # compact radial coordinate with the square weight: affine rule path
    R = 1.7
    ball = CoordinateSystem(
        "ball",
        (
            CoordinateSpec("r", 0.0, R, "compact-nonperiodic", WEIGHTS["q^2"], "linear"),
            CoordinateSpec("theta", 0.0, math.pi, "compact-nonperiodic", WEIGHTS["sin"], "angular"),
            CoordinateSpec("phi", 0.0, 2.0 * math.pi, "compact-periodic", WEIGHTS["one"], "angular"),
        ),
    )
    one = lambda q: q * 0.0 + 1.0
    value, err = integrate_separable(ball, [one, one, one], QuadratureConfig())
    exact = 4.0 / 3.0 * math.pi * R**3
    assert value.real == pytest.approx(exact, rel=1e-10)
    assert abs(value.imag) <= 1e-14 * exact


def test_hydrogen_norms_via_integrate_separable():
    cfg = QuadratureConfig()
    for n in range(1, 6):
        for L in range(n):
            state = hydrogen_state(QuantumNumbers(n, L, min(L, 1)))
            densities = [
                (lambda f: (lambda q: np.abs(np.asarray(f.evaluate(q))) ** 2))(f)
                for f in state.factors
            ]
            value, err = integrate_separable(
                state.system, densities, QuadratureConfig(radial_scale=state.radial_scale)
            )
            assert abs(value.real - 1.0) <= 1e-10, f"(n,L)=({n},{L})"
            assert abs(value.imag) <= 1e-14


def test_error_estimate_bounds_true_error():
    # validated on the analytic set, with a rounding floor
    line = CoordinateSystem(
        "axis", (CoordinateSpec("x", -math.inf, math.inf, "line", WEIGHTS["one"], "linear"),)
    )
    half = CoordinateSystem(
        "ray", (CoordinateSpec("r", 0.0, math.inf, "half-line", WEIGHTS["q^2"], "linear"),)
    )
    cases = [
        (line, [lambda x: np.exp(-(x**2))], math.sqrt(math.pi)),
        (half, [lambda r: np.exp(-2.0 * r)], 0.25),
        (half, [lambda r: np.exp(-r) / np.maximum(r, 1e-300) ** 2], 1.0),
    ]
    for system, integrands, exact in cases:
        for cfg in (QuadratureConfig(radial_order=40), QuadratureConfig(radial_order=80)):
            value, estimate = integrate_separable(system, integrands, cfg)
            true_err = abs(value.real - exact)
            assert true_err <= estimate + 1e-13 * abs(exact)


def test_integrate_separable_errors():
    sph = make_spherical()
    one = lambda q: q * 0.0 + 1.0
    with pytest.raises(ConfigurationError):
        integrate_separable(sph, [one, one], QuadratureConfig())


def test_config_validation_and_dispatch():
    cfg = QuadratureConfig()
    assert (cfg.radial_order, cfg.theta_order, cfg.phi_order) == (120, 64, 32)
    sph = make_spherical()
    assert cfg.order_for(sph.coords[0]) == 120
    assert cfg.order_for(sph.coords[1]) == 64
    assert cfg.order_for(sph.coords[2]) == 32
    with pytest.raises(ConfigurationError):
        QuadratureConfig(radial_order=0)
    with pytest.raises(ConfigurationError):
        QuadratureConfig(radial_scale=-1.0)
    with pytest.raises(DomainError):
        gauss_legendre(-3)


def test_coordinate_integral_includes_weight():
    sph = make_spherical()
    R = 1.7
    ball_r = CoordinateSpec("r", 0.0, R, "compact-nonperiodic", WEIGHTS["q^2"], "linear")
    sine_ring = CoordinateSpec("u", 0.0, 2.0 * math.pi, "compact-periodic", WEIGHTS["sin"], "angular")
    cases = [
        # radial: integrand exp(-2r) against w = r^2, at two map scales
        (sph.coords[0], lambda r: np.exp(-2.0 * r), 80, 1.0, 0.25),
        (sph.coords[0], lambda r: np.exp(-2.0 * r), 80, 2.5, 0.25),
        # polar: cos^2 against sin(theta), absorbed by the x = cos(theta) rule
        (sph.coords[1], lambda th: np.cos(th) ** 2, 24, 1.0, 2.0 / 3.0),
        # periodic: unit weight, and a sine weight folded into the trapezoid
        (sph.coords[2], lambda ph: np.cos(ph) ** 2, 32, 1.0, math.pi),
        (sine_ring, lambda u: np.sin(u), 32, 1.0, math.pi),
        # affine compact: unit integrand against r^2 on (0, R)
        (ball_r, lambda r: r * 0.0 + 1.0, 16, 1.0, R**3 / 3.0),
    ]
    for spec, integrand, order, scale, exact in cases:
        got = coordinate_integral(spec, integrand, order, scale)
        assert got.real == pytest.approx(exact, rel=1e-12), spec.name
        assert abs(got.imag) == 0.0


def test_rule_cache_does_not_grow_with_scale():
    spec = make_spherical().coords[0]
    first = coordinate_rule(spec, 120, 1.0)
    size = quadrature._unit_rule.cache_info().currsize
    for k in range(1000):
        rule = coordinate_rule(spec, 120, 0.5 + k * 1e-3)
    assert quadrature._unit_rule.cache_info().currsize == size
    assert rule.nodes[0] == pytest.approx(1.499 * first.nodes[0], rel=1e-15)
    with pytest.raises(DomainError):
        coordinate_rule(spec, 120, 0.0)
    # cached rules are shared, so nothing may write into them
    polar = coordinate_rule(make_spherical().coords[1], 64)
    assert polar is coordinate_rule(make_spherical().coords[1], 64)
    for arr in (first.nodes, first.weights, polar.weights, gauss_legendre(16).nodes):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the stacked rules of every axis: one cached unit rule per (spec, order)
    system = make_spherical()
    stacked = axis_rules(system, QuadratureConfig())
    size = quadrature._stacked_unit_rule.cache_info().currsize
    for k in range(1000):
        rules = axis_rules(system, QuadratureConfig(radial_scale=0.5 + k * 1e-3))
    assert quadrature._stacked_unit_rule.cache_info().currsize == size
    assert rules[1] is stacked[1] and rules[2] is stacked[2]
    full, half = coordinate_rule(spec, 120, 1.499), coordinate_rule(spec, 60, 1.499)
    assert np.array_equal(rules[0].nodes, np.concatenate([full.nodes, half.nodes]))
    assert np.array_equal(rules[0].weights[0, :120], full.weights)
    assert np.array_equal(rules[0].weights[1, 120:], half.weights)
    for rule in rules + stacked:
        for arr in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_contract_on_stacked_rules_matches_separate_sums():
    # every topology: half-line, line, periodic, polar (sine absorbed) and an
    # affine compact axis; each table real and complex, at a non-unit scale
    ball = CoordinateSystem(
        "ball", (CoordinateSpec("r", 0.0, 1.7, "compact-nonperiodic", WEIGHTS["q^2"], "linear"),)
    )
    systems = list(preset_systems().values()) + [ball]
    cfg = QuadratureConfig(radial_order=40, theta_order=24, phi_order=16, radial_scale=1.3)
    integrands = [
        lambda q: np.exp(-0.5 * np.abs(q)) * (1.0 + np.cos(q)),
        lambda q: np.exp(-0.5 * np.abs(q) + 1j * q) * (2.0 + np.sin(q)),
    ]
    for system in systems:
        for spec, rule in zip(system.coords, axis_rules(system, cfg)):
            order = cfg.order_for(spec)
            full = coordinate_rule(spec, order, cfg.radial_scale)
            half = coordinate_rule(spec, max(order // 2, 2), cfg.radial_scale)
            assert rule.full == len(full.nodes)
            assert np.array_equal(rule.nodes, np.concatenate([full.nodes, half.nodes]))
            assert rule.weights.shape == (2, len(rule.nodes))
            with pytest.raises(ValueError):
                rule.nodes[0] = 0.0
            for f in integrands:
                got = contract(rule, f(rule.nodes))
                for value, single in zip(got, (full, half)):
                    expected = complex(np.sum(single.weights * f(single.nodes)))
                    assert abs(value - expected) <= 1e-14 * abs(expected), (system.name, spec.name)
