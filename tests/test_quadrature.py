"""Quadrature rules against analytic integrals and numpy's own solver."""

import dataclasses
import inspect
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
import curvimom
from curvimom import quadrature
from curvimom.quadrature import (
    DEFAULT_CONFIG,
    AxisRule,
    QuadratureConfig,
    QuadratureRule,
    axis_rule,
    combine_axes,
    contract_rows,
    coordinate_integral,
    coordinate_rule,
    gauss_legendre,
    half_line_rule,
    hermite_rule,
    integrate_separable,
    line_rule,
    periodic_rule,
)
from curvimom.operators import canonical_momentum
from curvimom.specfun import QuantumNumbers
from curvimom.states import (
    FactorFunction, SeparableState, hydrogen_family, hydrogen_state, trial_family
)


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
        rule = half_line_rule(order)
        errors.append(abs(float(np.sum(rule.weights * np.exp(-rule.nodes))) - 1.0))
    for lo, hi in zip(errors[1:], errors[:-1]):
        if hi > 1e-12:
            assert lo <= hi / 10.0
    assert errors[-1] <= 1e-12


def test_half_line_gamma_integral():
    # integral of r^2 exp(-2r) = 2/8 = 1/4
    rule = half_line_rule(80)
    got = float(np.sum(rule.weights * rule.nodes**2 * np.exp(-2.0 * rule.nodes)))
    assert got == pytest.approx(0.25, abs=1e-13)


def test_half_line_structure():
    radial = make_spherical().coords[0]
    rule = coordinate_rule(radial, 40, 2.5)
    assert np.all(rule.nodes > 0.0)
    assert np.all(rule.weights > 0.0)
    assert np.all(np.diff(rule.nodes) > 0.0)
    # the map sends x = 0 to r = scale, so half the nodes sit below scale
    assert int(np.sum(rule.nodes < 2.5)) == 20
    with pytest.raises(DomainError):
        coordinate_rule(radial, 40, 0.0)
    with pytest.raises(DomainError):
        half_line_rule(0)


def test_line_rule_gaussian():
    rule = line_rule(60)
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
            value, err = integrate_separable(state.system, densities, cfg, state.factors[0].scale)
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
    for orders in ((0, 64, 32), (2, 2, 2), (120, 64, 4097)):
        with pytest.raises(ConfigurationError):
            QuadratureConfig(*orders)
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
        got = coordinate_integral(axis_rule(spec, order, scale), integrand)
        assert got.real == pytest.approx(exact, rel=1e-12), spec.name
        assert abs(got.imag) == 0.0


def test_hermite_rules_integrate_gaussian_moments_exactly():
    # x^k e^(-x^2), x = (q - c)/s, k = 0..15, on every linear coordinate's hermite rule (e^(x_i^2)
    # in its weights): Gauss-Hermite on a line gives s Gamma((k+1)/2) for even k and 0 for odd,
    # the half-range rule s Gamma((k+1)/2)/2; the 4 half-order nodes are exact to k = 7
    linear = [spec for system in preset_systems().values() for spec in system.coords
              if spec.topology in ("line", "half-line")]
    assert quadrature.HERMITE_ORDER == 8
    for spec in linear:
        for s, c in ((1.0, 0.0), (0.7, 0.3 if spec.topology == "line" else 0.0)):
            rule = hermite_rule(spec, s, c)
            assert rule.full == 8 and len(rule.nodes) == 12
            x = (rule.nodes - c) / s
            for k in range(16):
                scale = s * math.gamma((k + 1) / 2) / (2.0 if spec.topology == "half-line" else 1.0)
                exact = 0.0 if spec.topology == "line" and k % 2 else scale
                got = contract_rows(rule, x**k * np.exp(-x * x) / spec.weight.value(rule.nodes))[0]
                assert abs(got[0] - exact) <= 1e-14 * scale, (spec.name, s, k)
                if k < 8:
                    assert abs(got[1] - exact) <= 1e-14 * scale, (spec.name, s, k)
    # a hermite rule is for a linear coordinate, at a positive width
    with pytest.raises(ConfigurationError):
        hermite_rule(make_spherical().coords[1], 1.0, 0.0)
    with pytest.raises(DomainError):
        hermite_rule(make_spherical().coords[0], 0.0, 0.0)


def test_rule_cache_does_not_grow_with_scale():
    spec = make_spherical().coords[0]
    first = coordinate_rule(spec, 120, 1.0)
    size = quadrature._stacked_unit_rule.cache_info().currsize
    for k in range(1000):
        rule = coordinate_rule(spec, 120, 0.5 + k * 1e-3)
    assert quadrature._stacked_unit_rule.cache_info().currsize == size
    assert rule.nodes[0] == pytest.approx(1.499 * first.nodes[0], rel=1e-15)
    with pytest.raises(DomainError):
        coordinate_rule(spec, 120, 0.0)
    # cached rules are shared, so nothing may write into them: a compact axis's
    # rule is a view of its one cached stacked rule
    polar_spec = make_spherical().coords[1]
    polar, cached = coordinate_rule(polar_spec, 64), quadrature._stacked_unit_rule(polar_spec, 64)
    assert np.shares_memory(polar.nodes, cached.nodes) and np.shares_memory(polar.weights, cached.weights)
    for arr in (first.nodes, first.weights, polar.nodes, polar.weights, gauss_legendre(16).nodes):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the stacked rules of every axis: one cached unit rule per (spec, order)
    system = make_spherical()
    cfg = QuadratureConfig()
    stacked = [axis_rule(s, cfg.order_for(s), 1.0) for s in system.coords]
    size = quadrature._stacked_unit_rule.cache_info().currsize
    for k in range(1000):
        rules = [axis_rule(s, cfg.order_for(s), 0.5 + k * 1e-3) for s in system.coords]
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


def _scaled_unit_rule(spec, order, scale):
    # a unit rule taken to ``scale`` by hand, w(q) folded in on a line or half-line
    unit = quadrature._unit_rule(spec, order)
    if spec.topology not in ("line", "half-line"):
        return unit
    nodes = scale * unit.nodes
    return QuadratureRule(nodes, scale * unit.weights * spec.weight.value(nodes))


def test_contract_on_stacked_rules_matches_separate_sums():
    # every topology: half-line, line, periodic, polar (sine absorbed) and an
    # affine compact axis; each table real and complex, at a non-unit scale;
    # the full- and half-order references are built here, not by the package
    ball = CoordinateSystem(
        "ball", (CoordinateSpec("r", 0.0, 1.7, "compact-nonperiodic", WEIGHTS["q^2"], "linear"),)
    )
    systems = list(preset_systems().values()) + [ball]
    cfg, scale = QuadratureConfig(radial_order=40, theta_order=24, phi_order=16), 1.3
    integrands = [
        lambda q: np.exp(-0.5 * np.abs(q)) * (1.0 + np.cos(q)),
        lambda q: np.exp(-0.5 * np.abs(q) + 1j * q) * (2.0 + np.sin(q)),
    ]
    for system in systems:
        for spec in system.coords:
            order = cfg.order_for(spec)
            rule = axis_rule(spec, order, scale)
            full = _scaled_unit_rule(spec, order, scale)
            half = _scaled_unit_rule(spec, max(order // 2, 2), scale)
            n = rule.full
            assert n == len(full.nodes)
            assert np.array_equal(rule.nodes, np.concatenate([full.nodes, half.nodes]))
            assert rule.weights.shape == (2, len(rule.nodes))
            assert np.array_equal(rule.weights[0], np.concatenate([full.weights, np.zeros(len(half.nodes))]))
            assert np.array_equal(rule.weights[1], np.concatenate([np.zeros(n), half.weights]))
            with pytest.raises(ValueError):
                rule.nodes[0] = 0.0
            for f in integrands:
                got = contract_rows(rule, f(rule.nodes))[0]
                for value, single in zip(got, (full, half)):
                    expected = complex(np.sum(single.weights * f(single.nodes)))
                    assert abs(value - expected) <= 1e-14 * abs(expected), (system.name, spec.name)


def test_each_row_contracts_as_it_would_alone():
    # a k-row table, on one shared rule (compact axis) or on k scaled rules
    # (half-line axis), gives each row the bits of that row contracted alone
    rng = np.random.default_rng(7)
    r, theta = make_spherical().coords[:2]
    for spec, scale in ((theta, 1.0), (r, (0.5, 1.0, 2.0, 3.5))):
        rule = axis_rule(spec, 40, scale)
        rules = [rule] * 4 if np.ndim(scale) == 0 else [AxisRule(*p, full=rule.full) for p in zip(rule.nodes, rule.weights)]
        for table in (rng.random((4, rule.nodes.shape[-1])), rng.random((4, rule.nodes.shape[-1])) * (1 + 2j)):
            alone = np.concatenate([contract_rows(one, row) for one, row in zip(rules, table)])
            assert contract_rows(rule, table).tobytes() == alone.tobytes()


def _scalar_combine(pairs):
    # one member's value 1 f_0 f_1 ... and estimate sum_i |full_i - half_i| (1 prod_{j != i} |full_j|),
    # in Python scalars, coordinate by coordinate
    fulls = [full for full, _ in pairs]
    mags = [abs(f) for f in fulls]
    error = sum(abs(full - half) * math.prod(m for j, m in enumerate(mags) if j != i)
                for i, (full, half) in enumerate(pairs))
    return complex(math.prod(fulls)), float(error)


def _bits(value, estimate):
    value = complex(value)
    return value.real.hex(), value.imag.hex(), float(estimate).hex()


def test_combine_axes_gives_each_member_the_bits_of_the_member_alone():
    # on the (k, 2) sums an expectation combines (the norms, with each axis's moment in its
    # place) and a norm combines: k members give the bits of k one-member calls and of the
    # scalar formula, on hydrogen and trial families of every preset system and on a 1-D system
    cfg = QuadratureConfig()
    qns = [QuantumNumbers(n, L, M) for n in range(1, 5) for L in range(n) for M in range(-L, L + 1)]
    families = [hydrogen_family(qns)]
    families += [trial_family(system, range(20)) for system in preset_systems().values()]
    ball = CoordinateSystem(
        "ball", (CoordinateSpec("r", 0.0, 1.7, "compact-nonperiodic", WEIGHTS["q^2"], "linear"),)
    )
    decay = FactorFunction(
        lambda q: np.exp(-np.asarray(q)), lambda q: -np.exp(-np.asarray(q)), spec=ball.coords[0], scale=1.0
    )
    families.append(SeparableState((decay,), ball))
    for family in families:
        values, norms = family.tabulate(cfg)
        k, cases = len(norms[0]), [norms]
        for axis in range(family.system.dim):
            factor, table = family.factors[axis], values[axis]
            rule, slopes = factor.rule(cfg), factor.derivative_table(cfg)
            drift = canonical_momentum(family.system, axis).drift(rule.nodes)
            moments = contract_rows(rule, np.conj(table) * -1j * (slopes + drift * table))
            cases += [norms[:axis] + (moments,) + norms[axis + 1 :], norms[:axis] + norms[axis + 1 :]]
        for pairs in cases:
            value, estimate = combine_axes(pairs)
            assert value.shape == estimate.shape == (k,)
            for i in range(k):
                alone = combine_axes([sums[i : i + 1] for sums in pairs])
                scalar = _scalar_combine([tuple(sums[i].tolist()) for sums in pairs])
                assert _bits(value[i], estimate[i]) == _bits(alone[0][0], alone[1][0]) == _bits(*scalar)
    # no coordinates: one member, 1 with no error
    value, estimate = combine_axes([])
    assert value.tolist() == [1.0] and estimate.tolist() == [0.0]


def test_periodic_coordinate_must_span_a_full_turn():
    # the periodic rule's nodes always cover (0, 2 pi), so a periodic spec on any other
    # interval is refused where it is made, before a rule is asked for
    phi = make_spherical().coords[2]
    for lower, upper in ((0.0, math.pi), (-math.pi, math.pi)):
        with pytest.raises(ConfigurationError, match="must span"):
            axis_rule(dataclasses.replace(phi, lower=lower, upper=upper), 32)


def test_every_config_parameter_defaults_to_the_one_default_config():
    params = [
        (name, param)
        for name, fn in inspect.getmembers(curvimom, inspect.isfunction)
        for param in inspect.signature(fn).parameters.values()
        if param.name == "config"
    ]
    assert len(params) == 12
    for name, param in params:
        assert param.default is DEFAULT_CONFIG, name
    assert DEFAULT_CONFIG == QuadratureConfig()
