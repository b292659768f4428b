"""Analysis layer: reality contracts, defect laws, hydrogen identities.

Every expected number here is either a direct hand computation
(1/(n^2 a0), the closed-form moments) or a second, independent quadrature
route (the defect law checked against <g> computed separately).
"""

import collections
import dataclasses
import json
import math
import struct
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cli_runner import invoke
from curvimom.errors import (
    ConfigurationError, DomainError, PreconditionError, UnsupportedAxisError, UnsupportedStateError
)
from curvimom.geometry import (
    WEIGHTS,
    CoordinateSpec,
    CoordinateSystem,
    make_cartesian,
    make_cylindrical,
    make_plane_polar,
    make_spherical,
    measure_factor,
    preset_systems,
)
from curvimom.analysis import (
    ExpectationReport,
    cartesian_reality_check,
    ci_uniqueness_demo,
    drift_expectation,
    expectation,
    expectations,
    force_balance,
    inv_r2_closed_form,
    inv_r3_closed_form,
    naive_ehrenfest_residual,
    p_theta_spectrum_scan,
    radial_moment,
    reality_tolerance,
    require_normalised,
    run_check_suites,
)
from curvimom import analysis, cli, operators, quadrature, specfun, states
from curvimom.operators import (
    canonical_momentum,
    coordinate_scaled_state,
    momentum_unit,
    naive_momentum,
    operator_applied_state,
)
from curvimom.quadrature import QuadratureConfig, coordinate_integral, gauss_legendre, periodic_rule
from curvimom.specfun import QuantumNumbers, assoc_laguerre, assoc_legendre
from curvimom.states import (
    FactorFunction,
    PhysicalConstants,
    SeparableState,
    hydrogen_family,
    hydrogen_state,
    random_bound_trial,
    state_overlap,
    trial_family,
)


def test_expectation_requires_normalized_state():
    state = hydrogen_state(QuantumNumbers(1, 0, 0))
    denorm = SeparableState(
        factors=state.factors,
        system=state.system,
        normalized=False,
    )
    with pytest.raises(PreconditionError):
        expectation(canonical_momentum(state.system, 0), denorm)
    # the drift moment is an expectation value too: r psi on (2, 1, 0) once read 5.0 for
    # <1/r>, the unnormalised integral, where the true value is <r>/<r^2> = 1/6
    for unnormalised in (denorm, coordinate_scaled_state(hydrogen_state(QuantumNumbers(2, 1, 0)), 0)):
        with pytest.raises(PreconditionError):
            drift_expectation(unnormalised, 0)
    assert abs(drift_expectation(state, 0) - 1.0) <= 1e-12


_FAMILIES = {name: lambda system=system: trial_family(system, [1, 2, 3]) for name, system in preset_systems().items()}
_FAMILIES["hydrogen"] = lambda: hydrogen_family([QuantumNumbers(n, 1, 0) for n in (2, 3, 4)])


@pytest.mark.parametrize("name", sorted(_FAMILIES))
def test_a_family_is_a_state_of_k_rows(name):
    # what gives a row per member gives three; what answers for one state refuses a family,
    # where expectation and drift_expectation once answered for member 0
    family, cfg = _FAMILIES[name](), QuadratureConfig()
    assert family.is_family and family.norms(cfg).shape == (3,)
    for axis in range(family.system.dim):
        op = canonical_momentum(family.system, axis)
        assert len(expectations(op, family, cfg).value) == len(family.moments(axis, np.ones_like, cfg)) == 3
        with pytest.raises(ConfigurationError, match="family"):
            expectation(op, family, cfg)
        with pytest.raises(ConfigurationError, match="family"):
            drift_expectation(family, axis, cfg)
    with pytest.raises(ConfigurationError, match="family"):
        state_overlap(family, family, cfg)


def test_a_one_level_hydrogen_family_is_a_family():
    # its factors are stacks of one part, each carrying a tuple of one scale, as state_overlap reads them
    family, state = hydrogen_family([QuantumNumbers(2, 1, 0)]), hydrogen_state(QuantumNumbers(2, 1, 0))
    op = canonical_momentum(state.system, 0)
    assert family.is_family and not state.is_family
    rep, alone = expectations(op, family), expectation(op, state)
    assert (type(alone.value), type(alone.boundary_term), type(alone.quadrature_error)) == (complex, float, float)
    assert rep.value.tolist() == [alone.value]
    assert rep.boundary_term.tolist() == [alone.boundary_term]
    assert rep.quadrature_error.tolist() == [alone.quadrature_error]
    with pytest.raises(ConfigurationError):
        expectation(op, family)


def test_expectation_evaluates_each_other_axis_once(monkeypatch):
    # one stacked node array per axis holds both orders: the boundary term
    # reuses the memoised norms and rule, and every later integral on the
    # state reads the same table
    state = hydrogen_state(QuantumNumbers(3, 2, 1))
    calls = [0, 0, 0]

    def counted(axis, ev):
        def evaluate(q):
            if np.ndim(q) > 0:  # single-point boundary probes are not counted
                calls[axis] += 1
            return ev(q)

        return evaluate

    factors = tuple(f.derived(counted(axis, f.evaluate), f.derivative) for axis, f in enumerate(state.factors))
    counted_state = SeparableState(factors=factors, system=state.system)
    rule_calls = [0]
    coordinate_rule = quadrature.coordinate_rule

    def counted_rule(*args, **kwargs):
        rule_calls[0] += 1
        return coordinate_rule(*args, **kwargs)

    for name, module in list(sys.modules.items()):  # wherever it was imported
        if name.startswith("curvimom") and getattr(module, "coordinate_rule", None) is coordinate_rule:
            monkeypatch.setattr(module, "coordinate_rule", counted_rule)
    rep = expectation(canonical_momentum(state.system, 0), counted_state)
    assert calls == [1, 1, 1]
    assert rule_calls == [0]  # stacked rules come from their own cache
    assert rep.value == expectation(canonical_momentum(state.system, 0), state).value

    for axis in (1, 2):
        rep = expectation(canonical_momentum(state.system, axis), counted_state)
        assert rep.value == expectation(canonical_momentum(state.system, axis), state).value
    rep = expectation(naive_momentum(state.system, 0), counted_state)
    assert rep.value == expectation(naive_momentum(state.system, 0), state).value
    assert drift_expectation(counted_state, 1) == drift_expectation(state, 1)
    assert state_overlap(counted_state, counted_state) == state_overlap(state, state)
    assert calls == [1, 1, 1]
    # no production path calls coordinate_rule: each reads axis_rule's rows
    family = hydrogen_family([QuantumNumbers(n, 1, 0) for n in (2, 3)])
    family.moments(0, np.reciprocal, QuadratureConfig())
    trial_family(make_spherical(), range(4))
    assert all(result.passed for result in run_check_suites())
    assert invoke("hydrogen-table").exit_code == 0
    assert rule_calls == [0]


@pytest.fixture
def factor_calls(monkeypatch):
    # counts every factor's evaluate/derivative calls on arrays and on single
    # points, from empty hydrogen constructor, family stack and scan and table level caches
    caches = (states._hydrogen_radial, states._theta_factor, states._phi_factor, states._stacked,
              analysis._scan_levels, analysis._table_levels)
    for cache in caches:
        cache.cache_clear()
    counts = collections.Counter()
    init = FactorFunction.__init__

    def counting_init(obj, evaluate, derivative, **kwargs):
        def counted(name, fn):
            def call(q):
                counts[name, "array" if np.ndim(q) > 0 else "point"] += 1
                return fn(q)

            return call

        init(obj, counted("evaluate", evaluate), counted("derivative", derivative), **kwargs)

    monkeypatch.setattr(FactorFunction, "__init__", counting_init)
    yield counts
    for cache in caches:
        cache.cache_clear()


def test_families_build_no_member_states(monkeypatch):
    # a family is one state whose factors hold every member's rows, so no state is built per
    # member: a check builds its 16 families (5 in the normalization suite, 4 in the commutators,
    # 5 in the reality scan, 2 in ci-uniqueness), the commutator suite's pointwise state per
    # system and the d^2 coordinate-scaled and d(d - 1) momentum-applied states its residuals
    # derive from it (16 + 55, where it built 387); a cold scan builds its one family of 121 levels
    # and a warm one none, as it keeps its levels' family; hydrogen-table builds its family alone,
    # as the force balance reads each level's quantum numbers
    built = []
    post_init = SeparableState.__post_init__
    monkeypatch.setattr(SeparableState, "__post_init__", lambda state: built.append(state) or post_init(state))
    run_check_suites()
    assert len(built) == 16 + sum(1 + d * d + d * (d - 1) for d in (s.dim for s in preset_systems().values())) == 71
    assert all(state.is_family for state in built)
    analysis._scan_levels.cache_clear()
    for families in (1, 0):  # cold, then warm
        built.clear()
        p_theta_spectrum_scan(10)
        assert len(built) == families and all(state.is_family for state in built)
    built.clear()
    analysis._table_levels.cache_clear()
    assert invoke("hydrogen-table", "--nmax", "6").exit_code == 0
    assert len(built) == 1 and built[0].is_family


def test_scan_tabulates_each_shared_factor_once(factor_calls, monkeypatch):
    # 121 states share 11 radial and 21 phi factors and hold 121 theta factors:
    # one table each, which the family's stacked factors read, one derivative
    # table per theta factor, and no single-point probe of the surface term
    p_theta_spectrum_scan(10)
    assert factor_calls == {("evaluate", "array"): 153, ("derivative", "array"): 121}
    # a warm scan reads every table from the shared factors' memos, also when
    # its family's stacks are built again
    factor_calls.clear()
    states._stacked.cache_clear()
    analysis._scan_levels.cache_clear()
    climbs = []
    climb = specfun._legendre_climb
    monkeypatch.setattr(specfun, "_legendre_climb", lambda *args: climbs.append(args[:2]) or climb(*args))
    p_theta_spectrum_scan(10)
    assert factor_calls == {} and climbs == []
    # r = 0, theta = 0 and theta = pi are zero ends of the weight, and phi = 0
    # and 2 pi are one point: no end is probed
    system = make_spherical()
    for qn in (QuantumNumbers(1, 0, 0), QuantumNumbers(3, 2, -1), QuantumNumbers(4, 3, 3)):
        state = hydrogen_state(qn)
        for axis in range(3):
            for op in (canonical_momentum(system, axis), naive_momentum(system, axis)):
                factor_calls.clear()
                expectation(op, state)
                assert factor_calls[("evaluate", "point")] == factor_calls[("derivative", "point")] == 0, axis


def test_warm_scan_builds_no_family_rule(monkeypatch):
    # the family's stacked factors read their parts' tables, and the theta axis's rule
    # ignores the scale: the theta stack's tuple of scales gets the shared unit rule and
    # no (k, n) rule is built, also by stacks built again for the warm scan
    expected = p_theta_spectrum_scan(10)
    states._stacked.cache_clear()
    analysis._scan_levels.cache_clear()
    built = []
    rule = states.axis_rule
    monkeypatch.setattr(states, "axis_rule", lambda *args: built.append(rule(*args)) or built[-1])
    assert p_theta_spectrum_scan(10) == expected
    assert built and all(r.nodes.ndim == 1 for r in built)


def test_warm_scan_reads_the_stacks_it_built(monkeypatch):
    # a repeated family gets the stacked factors it built before, so a warm scan
    # asks no member factor for a table and stacks nothing
    families, calls = [], collections.Counter()
    run = analysis.expectations
    monkeypatch.setattr(analysis, "expectations", lambda op, family, *a: families.append(family) or run(op, family, *a))
    expected = p_theta_spectrum_scan(10)
    for name in ("table", "derivative_table"):
        fn = getattr(FactorFunction, name)
        counted = lambda f, *args, fn=fn, name=name: calls.update([name] * (not f.parts)) or fn(f, *args)
        monkeypatch.setattr(FactorFunction, name, counted)
    stack = np.stack
    monkeypatch.setattr(np, "stack", lambda *args, **kwargs: calls.update(["stack"]) or stack(*args, **kwargs))
    assert p_theta_spectrum_scan(10) == expected
    assert calls == {}
    first, warm = families
    assert all(a is b for a, b in zip(first.factors, warm.factors))


def test_warm_scan_forms_no_momentum_sum(monkeypatch):
    # each factor keeps its momentum sums beside its tables: a cold scan contracts each of its
    # 153 shared factors' norms and its 121 theta factors' momentum sums, and evaluates the polar
    # drift once per theta factor; a warm one contracts nothing and evaluates no drift
    counts = collections.Counter()
    contract = states.contract_rows
    monkeypatch.setattr(states, "contract_rows", lambda *args: counts.update(["contract"]) or contract(*args))
    for spec in make_spherical().coords:
        weight = measure_factor(spec)._w  # the drift is w'/(2w): count its w' calls
        deriv = lambda q, d=weight.deriv, name=spec.name: counts.update([name]) or d(q)
        monkeypatch.setattr(measure_factor(spec), "_w", dataclasses.replace(weight, deriv=deriv))
    for cache in (states._hydrogen_radial, states._theta_factor, states._phi_factor, states._stacked,
                  analysis._scan_levels):
        cache.cache_clear()
    expected = p_theta_spectrum_scan(10)
    assert counts == {"contract": 153 + 121, "theta": 121}
    counts.clear()
    assert p_theta_spectrum_scan(10) == expected
    assert counts == {}


def test_derivative_table_is_memoised_with_the_values(factor_calls):
    # canonical and naive operators on one axis of a family ask each distinct
    # factor for its derivative once; the members (3, 2, -1) and (3, 2, 1)
    # share their radial factor
    system, cfg = make_spherical(), QuadratureConfig()
    qns = [QuantumNumbers(*qn) for qn in ((2, 1, 0), (3, 2, -1), (3, 2, 1))]
    members, family = [hydrogen_state(qn) for qn in qns], hydrogen_family(qns)
    for op in (canonical_momentum(system, 0), naive_momentum(system, 0)):
        expectations(op, family, cfg)
    assert factor_calls[("derivative", "array")] == 2
    # the table is the factor's own derivative on the value table's nodes,
    # bit for bit, and read-only; the family's stacks its members'
    stacked = family.factors[0].derivative_table(cfg)
    for state, row in zip(members, stacked):
        factor = state.factors[0]
        slopes = factor.derivative_table(cfg)
        assert np.array_equal(slopes, factor.derivative(factor.rule(cfg).nodes))
        assert np.array_equal(row, slopes)
        with pytest.raises(ValueError):
            slopes[0] = 0.0
    assert not stacked.flags.writeable
    # tabulating never asks for a derivative: a momentum-applied factor has
    # none, yet <psi| (p_phi psi)> = M hbar
    state = members[2]
    applied = operator_applied_state(canonical_momentum(system, 2), state)
    assert state_overlap(state, applied, cfg) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(UnsupportedStateError):
        applied.factors[2].derivative_table(cfg)
    # test_reality_scan_evaluates_each_trial_axis_once_per_family pins the
    # same one derivative per family and axis on trial families


def test_boundary_term_matches_endpoint_probe():
    # the surface term from the zero ends and the table agrees with probing
    # the factor at each end, infinite ends at the outermost full-order node
    cfg = QuadratureConfig()
    ball = CoordinateSystem(
        "ball", (CoordinateSpec("r", 0.0, 1.7, "compact-nonperiodic", WEIGHTS["q^2"], "linear"),)
    )
    decay = FactorFunction(
        lambda q: np.exp(-np.asarray(q)), lambda q: -np.exp(-np.asarray(q)), spec=ball.coords[0], scale=1.0
    )
    cases = [SeparableState((decay,), ball)]  # nonzero weight and value at r = 1.7
    cases += [
        hydrogen_state(QuantumNumbers(n, L, M))
        for n, L, M in ((1, 0, 0), (2, 1, -1), (3, 2, 1), (4, 3, 0), (4, 3, 3))
    ]
    cases += [random_bound_trial(system, seed) for system in preset_systems().values() for seed in range(3)]
    # an algebraic tail on x, lopsided by tanh, is still ~1e-8 at the outermost
    # nodes, so reading the wrong node at an infinite end shows
    lopsided = FactorFunction(
        lambda q: (2.0 + np.tanh(q)) / np.sqrt(1.0 + np.asarray(q) ** 2),
        lambda q: (1.0 - np.tanh(q) ** 2 - (2.0 + np.tanh(q)) * q / (1.0 + np.asarray(q) ** 2))
        / np.sqrt(1.0 + np.asarray(q) ** 2),
        spec=make_cartesian().coords[0],
        scale=1.0,
    )
    cases.append(SeparableState((lopsided,) + random_bound_trial(make_cartesian(), 0).factors[1:], make_cartesian()))
    for state in cases:
        coords = state.system.coords
        norms = [
            coordinate_integral(
                quadrature.axis_rule(spec, cfg.order_for(spec), f.scale),
                lambda q, f=f: np.abs(np.asarray(f.evaluate(q))) ** 2,
            ).real
            for spec, f in zip(coords, state.factors)
        ]
        for axis, spec in enumerate(coords):
            nodes = quadrature.coordinate_rule(spec, cfg.order_for(spec), state.factors[axis].scale).nodes
            lo = spec.lower if math.isfinite(spec.lower) else float(np.min(nodes))
            hi = spec.upper if math.isfinite(spec.upper) else float(np.max(nodes))

            def surface(q):
                return float(spec.weight.value(q)) * abs(complex(state.factors[axis].evaluate(q))) ** 2

            other = math.prod(norm for j, norm in enumerate(norms) if j != axis)
            probe = -0.5 * (surface(hi) - surface(lo)) * other
            got = expectation(canonical_momentum(state.system, axis), state, cfg).boundary_term
            assert abs(got - probe) <= 1e-15, (state.system.name, spec.name)
    # hand value on the ball: -(hbar/2) r^2 e^(-2r) at r = 1.7, zero at r = 0
    ball_term = expectation(canonical_momentum(ball, 0), cases[0], cfg).boundary_term
    assert ball_term == pytest.approx(-0.5 * 1.7**2 * math.exp(-3.4), rel=1e-14)
    tail_term = expectation(canonical_momentum(make_cartesian(), 0), cases[-1], cfg).boundary_term
    assert abs(tail_term) > 1e-9


def test_trial_linear_momenta_are_zero_to_rounding():
    # the oracle: a real bound factor's canonical <p> is 0, and the hermite rules are exact
    # for every trial linear integrand, so each value and estimate sits at rounding, over
    # seeds 0-199 on every system
    for system in preset_systems().values():
        family = trial_family(system, range(200))
        for axis, spec in enumerate(system.coords):
            if spec.topology in ("line", "half-line"):
                rep = expectations(canonical_momentum(system, axis), family)
                assert np.abs(rep.value).max() <= 1e-14, (system.name, spec.name)
                assert rep.quadrature_error.max() <= 1e-14, (system.name, spec.name)


def _trial_families_with_draws(monkeypatch, seeds) -> list:
    # (system, family, per factor the arguments its builder took: the (k, 1) parameter columns, or
    # the (k, 1, m) harmonics' coefficients, then the (k, 1) column of 1 / norms) on every system
    made = {}
    for name in ("_poly_gaussian", "_sine_sum", "_fourier_sum"):
        builder = getattr(states, name)

        def build(*args, builder=builder, **kwargs):
            factor = builder(*args, **kwargs)
            made[factor] = args
            return factor

        monkeypatch.setattr(states, name, build)
    families = [(system, trial_family(system, seeds)) for system in preset_systems().values()]
    return [(system, family, [made[f] for f in family.factors]) for system, family in families]


# int_0^pi sin(j theta) sin(k theta) sin(theta) d(theta) = [I(j - k) - I(j + k)] / 2 for the sine
# harmonics j, k = 1..4, where I(m) = int_0^pi cos(m theta) sin(theta) d(theta) = (1 + (-1)^m) / (1 - m^2)
_SINE_GRAM = np.array([[((2.0 / (1 - (j - k) ** 2) if (j - k) % 2 == 0 else 0.0)
                         - (2.0 / (1 - (j + k) ** 2) if (j + k) % 2 == 0 else 0.0)) / 2.0
                        for k in range(1, 5)] for j in range(1, 5)])


def _closed_form_norm_sq(spec, params) -> np.ndarray:
    # each member's int |f|^2 w dq for the raw profile (1 / norm left out), in closed form
    if spec.topology == "line":  # int (c0 + c1 u + c2 u^2)^2 e^(-u^2) s du
        s, _, c0, c1, c2 = (p[:, 0] for p in params)
        return s * math.sqrt(math.pi) * (c0 * c0 + (c1 * c1 + 2.0 * c0 * c2) / 2.0 + 0.75 * c2 * c2)
    if spec.topology == "half-line":  # against q^a: s^(1 + a) sum_ij c_i c_j Gamma((i + j + a + 1)/2) / 2
        a = {"q": 1, "q^2": 2}[spec.weight.ident]
        s, _, *cs = (p[:, 0] for p in params)
        return s ** (1 + a) * sum(ci * cj * math.gamma((i + j + a + 1) / 2) / 2
                                  for i, ci in enumerate(cs) for j, cj in enumerate(cs))
    cs = params[0][:, 0]
    if spec.topology == "compact-nonperiodic":
        return np.einsum("kj,jl,kl->k", cs, _SINE_GRAM, cs)
    return 2.0 * math.pi * np.sum(cs * cs, axis=-1)  # Parseval, the c_m already over sqrt(2 pi)


def _closed_form_p_phi(params) -> np.ndarray:
    # each member's <p_phi> of the Fourier sum sum_m c_m e^(i m phi), m = -2..2: sum_m m c_m^2 / sum_m c_m^2
    cs = params[0][:, 0]
    return np.sum(np.arange(-2, 3) * cs * cs, axis=-1) / np.sum(cs * cs, axis=-1)


def test_trial_norms_match_their_closed_forms(monkeypatch):
    # every trial factor is a polynomial times a Gaussian or a finite harmonic sum, so its norm
    # has a closed form: the factor's 1 / norm, folded in by quadrature, must give 1 with it,
    # over seeds 0-299 on every system
    for system, family, drawn in _trial_families_with_draws(monkeypatch, range(300)):
        for spec, (*params, inv) in zip(system.coords, drawn):
            miss = np.abs(_closed_form_norm_sq(spec, params) * inv[:, 0] ** 2 - 1.0)
            assert miss.shape == (300,) and miss.max() <= 4e-15, (system.name, spec.name, miss.max())


def test_trial_momenta_match_their_closed_forms(monkeypatch):
    # the canonical <p> of a real factor is 0 and <p_phi> of the Fourier sum sum_m c_m e^(i m phi) is
    # sum_m m c_m^2 / sum_m c_m^2 hbar: each trial value against it, over seeds 0-299 on every
    # system; the polar sine sum's defect is not at rounding, so a real axis is held to the reality
    # tolerance, and <p_phi> to 4e-15 hbar
    for system, family, drawn in _trial_families_with_draws(monkeypatch, range(300)):
        for axis, (spec, args) in enumerate(zip(system.coords, drawn)):
            rep = expectations(canonical_momentum(system, axis), family)
            if spec.topology == "compact-periodic":
                assert np.abs(rep.value - _closed_form_p_phi(args)).max() <= 4e-15, (system.name, spec.name)
            else:
                assert (np.abs(rep.value) <= reality_tolerance(rep)).all(), (system.name, spec.name)


def test_error_estimate_bounds_the_true_error(monkeypatch):
    # the estimate is a checked quantity: wherever a value has an independent truth, its error is
    # at most max(quad_error, 1e-13).  Hydrogen (n <= 9, M in {0, +-L}) at four radial orders, on
    # each level require_normalised accepts there: canonical <p_r> = <p_theta> = 0, <p_phi> = M,
    # naive <p_r> = i <1/r> = i/n^2; trial seeds 0-49 on every system: canonical <p> = 0 on each
    # real axis, and <p_phi> = sum_m m c_m^2 / sum_m c_m^2
    def bounded(rep, truth, where):
        error, bound = np.abs(rep.value - truth), np.maximum(rep.quadrature_error, 1e-13)
        assert (error <= bound).all(), (where, np.max(error / bound))
        return np.size(error)

    system = make_spherical()
    ops = [canonical_momentum(system, axis) for axis in range(3)] + [naive_momentum(system, 0)]
    qns = [QuantumNumbers(n, L, M) for n in range(1, 10) for L in range(n) for M in sorted({0, -L, L})]
    checked = []
    for order in (120, 80, 60, 40):
        cfg = QuadratureConfig(radial_order=order)
        accepted = 0
        for qn in qns:
            state = hydrogen_state(qn)
            try:
                require_normalised(state, cfg, str(qn))
            except DomainError:
                continue
            for op, truth in zip(ops, (0.0, 0.0, qn.M, 1j / qn.n**2)):
                accepted += bounded(expectation(op, state, cfg), truth, (order, qn, op.axis))
        checked.append(accepted)
    assert checked == [468, 236, 72, 20]
    checked = 0
    for system, family, drawn in _trial_families_with_draws(monkeypatch, range(50)):
        for axis, (spec, args) in enumerate(zip(system.coords, drawn)):
            truth = _closed_form_p_phi(args) if spec.topology == "compact-periodic" else 0.0
            checked += bounded(expectations(canonical_momentum(system, axis), family), truth, (system.name, axis))
    assert checked == 50 * 11  # 8 real axes and 3 azimuthal ones


def test_family_reports_compare_field_by_field():
    # == on two reports compares every field with np.array_equal, one bool for a family; a lone
    # report hashes by its numbers, a family's is unhashable
    system = make_spherical()
    op = canonical_momentum(system, 2)
    report = expectations(op, trial_family(system, [1, 2, 3]))
    assert report == expectations(op, trial_family(system, [1, 2, 3]))
    assert (report == expectations(op, trial_family(system, [3, 2, 1]))) is False
    with pytest.raises(TypeError):
        hash(report)
    lone, again = (expectation(op, random_bound_trial(system, 1)) for _ in range(2))
    assert lone == again and hash(lone) == hash(again)
    assert lone != expectation(op, random_bound_trial(system, 2))


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
            defect = expectation(naive, state).hermiticity_defect
            assert defect == pytest.approx(1.0 / n**2, rel=1e-10), (n, L)
            bulk = drift_expectation(state, 0)
            assert defect == pytest.approx(bulk, rel=1e-10), (n, L)


def test_naive_polar_defect_matches_drift_average():
    sph = make_spherical()
    naive = naive_momentum(sph, 1)
    for (n, L, M) in [(2, 1, 1), (3, 2, 1), (4, 3, 3), (3, 2, 0)]:
        state = hydrogen_state(QuantumNumbers(n, L, M))
        defect = expectation(naive, state).hermiticity_defect
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
            assert abs(can.hermiticity_defect) <= reality_tolerance(can), (
                system.name,
                axis,
                seed,
            )


def test_reality_tolerance_floor_and_scaling():
    # in natural momentum units the floor is 1e-9 on every axis
    state = hydrogen_state(QuantumNumbers(1, 0, 0))
    for axis in range(3):
        rep = expectation(canonical_momentum(state.system, axis), state)
        assert reality_tolerance(rep) == max(10.0 * rep.quadrature_error, 1e-9), axis
    assert reality_tolerance(ExpectationReport(0j, 0.0, 0.0)) == 1e-9
    assert reality_tolerance(ExpectationReport(0j, 0.0, 0.5)) == 5.0
    # elementwise on a family's report: errors on both sides of the floor, each member as if alone
    errors = np.array([0.0, 1e-11, 9e-11, 1e-10, 1.1e-10, 3e-10, 0.5])
    tols = reality_tolerance(ExpectationReport(np.zeros(len(errors), complex), np.zeros(len(errors)), errors))
    assert tols.tolist() == [reality_tolerance(ExpectationReport(0j, 0.0, e)) for e in errors.tolist()]
    assert (tols == 1e-9).any() and (tols > 1e-9).any()
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
            assert report.centrifugal == pytest.approx(report.inv_r2_quad, rel=1e-10)
    with pytest.raises(DomainError):
        force_balance(QuantumNumbers(3, 0, 0))


def test_force_balance_builds_one_state(monkeypatch):
    # <L^2> and both radial moments read the same hydrogen state
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return hydrogen_state(*args, **kwargs)

    monkeypatch.setattr(analysis, "hydrogen_state", counted)
    report = force_balance(QuantumNumbers(3, 2, 0))
    assert len(built) == 1
    assert report.inv_r2_quad == radial_moment(QuantumNumbers(3, 2, 0), -2)


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
    # members off norm are refused: an 8-node polar rule cannot resolve P_10^M
    # (worst |<psi|psi> - 1| = 1.0), 16 nodes can
    with pytest.raises(DomainError, match="not normalised"):
        p_theta_spectrum_scan(10, QuadratureConfig(theta_order=8))
    rows = p_theta_spectrum_scan(10, QuadratureConfig(theta_order=16))
    assert len(rows) == 121 and max(abs(row.value) for row in rows) <= 1e-9


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


def test_defect_law_carries_physical_units(tmp_path):
    # the library's defect is hbar/(n^2 a0) in natural units; expect --units si prints it in SI
    si = PhysicalConstants(hbar=1.054571817e-34, m=9.1093837015e-31, e2=2.3070775523e-28)
    path = tmp_path / "si.json"
    path.write_text(json.dumps({"hbar": si.hbar, "m": si.m, "e2": si.e2}))
    rows = {}
    for kind in ("naive", "canonical"):
        argv = ["expect", f"{kind}:r", "hydrogen:n=2,L=0,M=0", "--format", "json", "--units", "si",
                "--si-constants", str(path)]
        result = invoke(*argv)
        assert result.exit_code == (3 if kind == "naive" else 0), result.output
        rows[kind] = json.loads(result.stdout)
    assert rows["naive"]["defect"] == pytest.approx(si.hbar / (4.0 * si.a0), rel=1e-9)
    can = rows["canonical"]
    assert abs(can["defect"]) <= max(10.0 * can["quad_error"], 1e-9 * momentum_unit("linear", si))


def _as_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _last_accepted_m(accepted: float, refused: float) -> float:
    # the accepted m nearest ``refused`` for (hbar, m, e2) = (1, m, 1), so a0 = 1/m:
    # a bisection on the bit patterns, which order the positive floats
    lo, hi = (struct.unpack("<q", struct.pack("<d", m))[0] for m in (accepted, refused))
    while abs(hi - lo) > 1:
        mid = (lo + hi) // 2
        try:
            PhysicalConstants(1.0, _as_float(mid), 1.0)
            lo = mid
        except ConfigurationError:
            hi = mid
    return _as_float(lo)


# SI, a0 = 1e-100 and 1e100, and the smallest and largest a0 that PhysicalConstants accepts
_UNIT_SYSTEMS = {
    "si": (1.054571817e-34, 9.1093837015e-31, 2.3070775523e-28),
    "a0=1e-100": (1.0, 1e100, 1.0),
    "a0=1e100": (1.0, 1e-100, 1.0),
    "smallest-a0": (1.0, _last_accepted_m(1.0, 1e300), 1.0),
    "largest-a0": (1.0, _last_accepted_m(1.0, 1e-300), 1.0),
}


def test_check_suites_are_unit_covariant(tmp_path):
    # the suites work in units of a0 and hbar, so check prints the atomic
    # bytes in every unit system the constants check accepts
    atomic = invoke("check", "--seed", "3", "--format", "json")
    assert atomic.exit_code == 0, atomic.output
    for label, (hbar, m, e2) in _UNIT_SYSTEMS.items():
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps({"hbar": hbar, "m": m, "e2": e2}))
        argv = ["check", "--seed", "3", "--format", "json", "--units", "si", "--si-constants", str(path)]
        result = invoke(*argv)
        assert result.exit_code == 0, (label, result.output)
        assert result.stdout_bytes == atomic.stdout_bytes, label
    for end in ("smallest-a0", "largest-a0"):  # one float further is refused
        m = _UNIT_SYSTEMS[end][1]
        with pytest.raises(ConfigurationError):
            PhysicalConstants(1.0, math.nextafter(m, math.inf if end == "smallest-a0" else 0.0), 1.0)


@pytest.mark.parametrize("label", sorted(_UNIT_SYSTEMS))
def test_outputs_are_finite_or_refused_in_every_accepted_unit_system(label, tmp_path):
    # the CLI applies the units once, to the numbers it prints: each is finite, or
    # the command exits 2 with nothing on stdout, never NaN or a numpy warning
    hbar, m, e2 = _UNIT_SYSTEMS[label]
    path = tmp_path / "constants.json"
    path.write_text(json.dumps({"hbar": hbar, "m": m, "e2": e2}))
    units = ["--format", "json", "--units", "si", "--si-constants", str(path)]
    argvs = [["hydrogen-table", "--nmax", "6", *units], ["p-theta-scan", "--lmax", "10", *units]]
    argvs += [["expect", f"{kind}:{axis}", "hydrogen:n=3,L=2,M=1", *units]
              for kind in ("canonical", "naive") for axis in ("r", "theta", "phi")]
    argvs += [["expect", "canonical:x", f"trial:seed={seed}", "--system", "cartesian", *units] for seed in (0, 1)]
    refused = 0
    for argv in argvs:
        result = invoke(*argv)
        assert result.exception is None or isinstance(result.exception, SystemExit), (argv, result.exception)
        if result.exit_code == 2:
            assert result.stdout == "", argv
            refused += 1
            continue
        assert result.exit_code in (0, 3), (argv, result.output)
        values = [x for row in map(json.loads, result.stdout.splitlines()) for x in row.values()
                  if isinstance(x, float)]
        assert values and all(map(math.isfinite, values)), argv
    # only at the ends of the range does an output leave the normal floats
    assert refused == 0 or label.endswith("-a0"), (label, refused)


def test_a_printed_cell_that_leaves_the_normal_floats_is_refused(tmp_path):
    # at the largest a0 accepted, a0^-3 is one ulp above the smallest normal float: hydrogen-table's
    # <1/r^3> = 1/24 of (2, 1) times it underflows, so the table is refused whole, while the scan's
    # and expect's cells, in hbar and hbar/a0, stay normal
    hbar, m, e2 = _UNIT_SYSTEMS["largest-a0"]
    path = tmp_path / "constants.json"
    path.write_text(json.dumps({"hbar": hbar, "m": m, "e2": e2}))
    units = ["--units", "si", "--si-constants", str(path)]
    unit = PhysicalConstants(hbar, m, e2).length_unit(-3)
    assert unit == math.nextafter(sys.float_info.min, 1.0)
    table = invoke("hydrogen-table", "--nmax", "6", "--format", "csv", *units)
    assert table.exit_code == 2 and table.stdout == ""
    assert f"{0.04166666666666662!r} in natural units over- or underflows at the unit {unit!r}" in table.stderr
    for argv in (["p-theta-scan"], ["expect", "canonical:r", "hydrogen:n=3,L=2,M=1"]):
        assert invoke(*argv, *units).exit_code == 0, argv
    # zeros, NaN and subnormals are printed as they come; a normal cell must stay normal
    for value in (0.0, -0.0, math.nan, 5e-324, -1e-310):
        scaled = cli._in_units(value, unit)
        same = (scaled, math.copysign(1.0, scaled)) == (value * unit, math.copysign(1.0, value))
        assert math.isnan(scaled) if math.isnan(value) else same, value
    assert cli._in_units(0.5, 4.0 * unit) == 2.0 * unit and cli._in_units(0.5, 1.0) == 0.5
    for value, at in ((0.04166666666666662, unit), (-1.0, unit / 2.0), (1e10, 1e300)):
        with pytest.raises(DomainError, match="over- or underflows"):
            cli._in_units(value, at)


def test_a_table_is_scaled_as_one_product_and_refused_at_its_first_cell_in_row_order():
    # a (k, c) table times its c units: of two cells that leave the normal floats, in different
    # columns, the error names the one first in row order, (1, 1), not the first by column, (2, 0)
    units = (1e-300, 1e300, 2.0)
    refused = np.array([[0.0, -0.0, math.nan], [5e-324, 1e10, 1.0], [1e-10, 1.0, -1e-310]])
    # zeros, NaN and subnormals scale without refusal, each cell times its column's unit
    table = np.array([[0.0, -0.0, math.nan], [5e-324, -1e-310, 1.0], [-0.0, 1.0, -1e-310]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning escapes outside the command line's errstate
        with pytest.raises(DomainError) as error:
            cli._in_units(refused, units)
        scaled = cli._in_units(table, units)
    assert str(error.value) == f"{1e10!r} in natural units over- or underflows at the unit {1e300!r}"
    expected = np.array([[x * unit for x, unit in zip(row, units)] for row in table.tolist()])
    assert np.array_equal(scaled, expected, equal_nan=True)
    assert np.array_equal(np.signbit(scaled), np.signbit(expected))
    # in atomic units the table itself, and one unit scales every column
    assert cli._in_units(table, (1.0,) * 3) is table
    assert np.array_equal(cli._in_units(table, 2.0), 2.0 * table, equal_nan=True)


def test_run_check_suites_all_green():
    results = run_check_suites()
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
    results = run_check_suites(cfg)
    assert any(not r.passed for r in results)


def test_expectation_quadrature_error_is_small_for_eigenstates():
    state = hydrogen_state(QuantumNumbers(3, 2, 1))
    rep = expectation(canonical_momentum(make_spherical(), 0), state)
    assert rep.quadrature_error <= 1e-10


def test_radial_moment_positive_power():
    # <r> on the ground state is 1.5 a0, a classic hand value
    assert radial_moment(QuantumNumbers(1, 0, 0), 1) == pytest.approx(1.5, rel=1e-12)
    assert radial_moment(QuantumNumbers(2, 1, 0), 0) == pytest.approx(1.0, rel=1e-12)


def _exact_radial_moments(n: int, L: int) -> dict[int, Fraction]:
    # <r^s> in units of a0^s for s in [-(2L + 2), 20], exact, from Kramers' relation
    # (s+1)/n^2 <r^s> - (2s+1) <r^(s-1)> + s/4 ((2L+1)^2 - s^2) <r^(s-2)> = 0,
    # climbing from <r^0> = 1 and <r^-1> = 1/n^2, and falling from <r^-2> = 1/(n^3 (L + 1/2))
    moments = {0: Fraction(1), -1: Fraction(1, n * n), -2: Fraction(2, n**3 * (2 * L + 1))}
    for s in range(1, 21):
        lower = Fraction(s, 4) * ((2 * L + 1) ** 2 - s * s) * moments[s - 2]
        moments[s] = ((2 * s + 1) * moments[s - 1] - lower) * Fraction(n * n, s + 1)
    for s in range(-1, -(2 * L + 1), -1):
        higher = (2 * s + 1) * moments[s - 1] - Fraction(s + 1, n * n) * moments[s]
        moments[s - 2] = higher / (Fraction(s, 4) * ((2 * L + 1) ** 2 - s * s))
    return moments


def test_radial_moment_refuses_powers_it_cannot_honour():
    # every accepted power is within 1e-9 of the exact moment on every level with n <= 6
    # at the default orders; below -(2L + 2) the moment diverges at r = 0, and above 20
    # the quadrature leaves the tolerance (<r^21> is off by 1.0e-9 at (6, 0))
    for n in range(1, 7):
        for L in range(n):
            qn = QuantumNumbers(n, L, 0)
            exact = _exact_radial_moments(n, L)
            assert sorted(exact) == list(range(-(2 * L + 2), 21))
            for power, value in exact.items():
                assert radial_moment(qn, power) == pytest.approx(float(value), rel=1e-9), (n, L, power)
            for power in (-(2 * L + 3), 21, 80):
                with pytest.raises(DomainError):
                    radial_moment(qn, power)


_BOOLEAN_INTEGERS = {
    "QuantumNumbers": (lambda: QuantumNumbers(True, False, False), DomainError),
    "assoc_legendre": (lambda: assoc_legendre(True, False, 0.3), DomainError),
    "assoc_laguerre": (lambda: assoc_laguerre(1, True, 0.3), DomainError),
    "gauss_legendre": (lambda: gauss_legendre(True), DomainError),
    "periodic_rule": (lambda: periodic_rule(True), DomainError),
    "QuadratureConfig": (lambda: QuadratureConfig(theta_order=True), ConfigurationError),
    "trial_family": (lambda: trial_family(make_cartesian(), [2, False]), DomainError),
    "random_bound_trial": (lambda: random_bound_trial(make_cartesian(), True), DomainError),
    "p_theta_spectrum_scan": (lambda: p_theta_spectrum_scan(True), DomainError),
    "radial_moment": (lambda: radial_moment(QuantumNumbers(2, 1, 0), True), DomainError),
    "radial_moment-fraction": (lambda: radial_moment(QuantumNumbers(2, 1, 0), 1.5), DomainError),
}


@pytest.mark.parametrize("name", sorted(_BOOLEAN_INTEGERS))
def test_an_integer_argument_refuses_a_bool_and_a_fraction(name):
    # Python counts True and False as the integers 1 and 0; every integer argument refuses them
    call, error = _BOOLEAN_INTEGERS[name]
    with pytest.raises(error):
        call()


def test_an_integer_argument_takes_a_numpy_integer():
    one, two = np.int64(1), np.int32(2)
    assert radial_moment(QuantumNumbers(two, one, one), two) == radial_moment(QuantumNumbers(2, 1, 1), 2)
    assert len(p_theta_spectrum_scan(one)) == 4 and gauss_legendre(two) is gauss_legendre(2)
    assert random_bound_trial(make_cartesian(), two).norms(QuadratureConfig())[0] == pytest.approx(1.0, abs=1e-10)
    # an array of seeds is a sequence of NumPy integers, once refused by its ambiguous truth value
    as_array, as_range = trial_family(make_cartesian(), np.arange(3)), trial_family(make_cartesian(), range(3))
    assert as_array.norms(QuadratureConfig()).tolist() == as_range.norms(QuadratureConfig()).tolist()


def _count_trial_factor_calls(monkeypatch, counts: collections.Counter) -> None:
    # the trial builders count array evaluations of the factors they make
    def counted(builder):
        def build(*args, **kwargs):
            factor = builder(*args, **kwargs)

            def wrap(name, fn):
                def call(q):
                    if np.ndim(q) > 0:
                        counts[name] += 1
                    return fn(q)

                return call

            return factor.derived(wrap("evaluate", factor.evaluate), wrap("derivative", factor.derivative))

        return build

    for name in ("_poly_gaussian", "_sine_sum", "_fourier_sum"):
        monkeypatch.setattr(states, name, counted(getattr(states, name)))


def test_reality_scan_evaluates_each_trial_axis_once_per_family(monkeypatch):
    # one family per system, and per axis one raw-profile evaluation for the
    # normalisation, one table and one derivative, however many states it has
    counts, calls = collections.Counter(), collections.Counter()

    def tally(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.update([name]) or fn(*args))

    _count_trial_factor_calls(monkeypatch, counts)
    # the hydrogen moments read the tables the expectations made: a cold scan evaluates
    # each of the 10 radial factors for one value and one derivative table, a warm one none
    tally(states, "assoc_laguerre")
    tally(analysis, "drift_expectation")
    for cache in (states._hydrogen_radial, states._theta_factor, states._phi_factor):
        cache.cache_clear()
    axes = sum(system.dim for system in preset_systems().values())
    for trials, laguerre in ((50, 20), (5, 0)):
        counts.clear()
        calls.clear()
        monkeypatch.setattr(analysis, "_REALITY_TRIALS", trials)
        result = analysis._suite_reality(QuadratureConfig(), 0)
        assert result.passed and result.checks == 6 * 30 + axes * trials  # 730 at 50 trials
        assert counts == {"evaluate": 2 * axes, "derivative": axes}, trials
        assert (calls["assoc_laguerre"], calls["drift_expectation"]) == (laguerre, 0), trials
    cfg = QuadratureConfig()
    assert analysis._suite_ci_uniqueness(cfg, 0).checks == 40
    assert analysis._suite_normalization(cfg).checks == 42


def test_commutators_tabulate_each_trial_factor_once_per_point_set(monkeypatch):
    # per axis of the four systems: one raw-profile evaluation for the normalisation, then
    # one value and one slope array on the axis's sample points, read by all 82 applies
    # (358 evaluations and 102 derivatives when each apply evaluated the factors again)
    expected = {seed: analysis._suite_commutators(seed) for seed in (0, 1)}
    counts = collections.Counter()
    _count_trial_factor_calls(monkeypatch, counts)
    axes = sum(system.dim for system in preset_systems().values())
    for seed, result in expected.items():
        counts.clear()
        assert analysis._suite_commutators(seed) == result
        assert counts == {"evaluate": 2 * axes, "derivative": axes}, seed
    assert expected[0].passed and expected[0].checks == 1025


def test_check_suites_climb_and_apply_once_per_identity(monkeypatch):
    # on a warm run the Legendre suites climb once per order, 11 + 21 + 17, and the
    # commutator suite applies each operator once per trial family: 378 climbs when
    # each (L, M) climbed on its own, and 410 applies when each trial state ran alone
    run_check_suites(seed=1)
    calls = collections.Counter()
    for module, name in ((specfun, "_legendre_climb"), (operators, "apply")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, fn=fn, name=name: calls.update([name]) or fn(*args))
    assert all(result.passed for result in run_check_suites(seed=1))
    assert calls["_legendre_climb"] == 49
    assert calls["apply"] == 82


def test_recurrence_suite_fails_without_condon_shortley_phase(monkeypatch):
    # the order-raising identity ties P_L^M to P_L^{M+1}, a climb from
    # another seed, so a dropped (-1)^M shows in every row with M < L
    assert analysis._suite_recurrence().passed
    climb = specfun._legendre_climb

    def no_phase(L, M, xi):
        return (-1) ** abs(M) * climb(L, M, xi)

    monkeypatch.setattr(specfun, "_legendre_climb", no_phase)
    result = analysis._suite_recurrence()
    assert not result.passed and result.checks == 121 and result.failures == 110


def test_no_family_combines_two_complex_axes(monkeypatch):
    # combine_axes gives a member the bits of the member alone only while at most one axis's sums
    # are complex: over two, numpy's complex product may fuse its multiply-adds where a lone member
    # runs the scalar loop; every family the suites and the family commands combine keeps to that,
    # through combine_axes and through the product alone that the norms and surface terms take
    complex_axes = []

    def counting(combine):
        def counted(pairs):
            if pairs and len(pairs[0]) > 1:
                complex_axes.append(sum(np.iscomplexobj(sums) for sums in pairs))
            return combine(pairs)

        return counted

    for module, name in ((analysis, "combine_axes"), (analysis, "axes_product"), (states, "axes_product")):
        monkeypatch.setattr(module, name, counting(getattr(quadrature, name)))
    run_check_suites()
    for args in (("hydrogen-table", "--nmax", "6"), ("p-theta-scan", "--lmax", "10")):
        assert invoke(*args).exit_code == 0, args
    assert set(complex_axes) == {0, 1}, collections.Counter(complex_axes)  # norms real, momenta complex
