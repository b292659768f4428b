"""Analysis layer: reality contracts, defect laws, hydrogen identities.

Every expected number here is either a direct hand computation
(1/(n^2 a0), the closed-form moments) or a second, independent quadrature
route (the defect law checked against <g> computed separately).
"""

import collections
import math
import sys

import numpy as np
import pytest

from curvimom.errors import DomainError, PreconditionError, UnsupportedAxisError
from curvimom.geometry import (
    WEIGHTS,
    CoordinateSpec,
    CoordinateSystem,
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
    inv_r2_closed_form,
    inv_r3_closed_form,
    momentum_unit,
    naive_ehrenfest_residual,
    p_theta_spectrum_scan,
    radial_moment,
    reality_tolerance,
    run_check_suites,
)
from curvimom import analysis, quadrature, specfun, states
from curvimom.operators import canonical_momentum, naive_momentum
from curvimom.quadrature import QuadratureConfig, coordinate_integral
from curvimom.specfun import QuantumNumbers
from curvimom.states import (
    ATOMIC,
    FactorFunction,
    PhysicalConstants,
    SeparableState,
    hydrogen_state,
    random_bound_trial,
    state_overlap,
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

    factors = tuple(
        FactorFunction(counted(axis, f.evaluate), f.derivative)
        for axis, f in enumerate(state.factors)
    )
    counted_state = SeparableState(
        factors=factors, system=state.system, radial_scale=state.radial_scale
    )
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


@pytest.fixture
def factor_calls(monkeypatch):
    # counts every factor's evaluate/derivative calls on arrays and on single
    # points, from empty hydrogen constructor caches
    caches = (states._hydrogen_radial, states._theta_factor, states._phi_factor)
    for cache in caches:
        cache.cache_clear()
    counts = collections.Counter()
    init = FactorFunction.__init__

    def counting_init(obj, evaluate, derivative):
        def counted(name, fn):
            def call(q):
                counts[name, "array" if np.ndim(q) > 0 else "point"] += 1
                return fn(q)

            return call

        init(obj, counted("evaluate", evaluate), counted("derivative", derivative))

    monkeypatch.setattr(FactorFunction, "__init__", counting_init)
    yield counts
    for cache in caches:
        cache.cache_clear()


def test_scan_tabulates_each_shared_factor_once(factor_calls):
    # 121 states share 11 radial and 21 phi factors: 11 + 121 + 21 tables,
    # one theta derivative per state, and no single-point probe of the
    # surface term
    p_theta_spectrum_scan(10)
    assert factor_calls == {("evaluate", "array"): 153, ("derivative", "array"): 121}
    # r = 0, theta = 0 and theta = pi are zero ends of the weight: no probe;
    # phi = 0 and 2 pi have weight 1, so only there is the factor evaluated
    system = make_spherical()
    for qn in (QuantumNumbers(1, 0, 0), QuantumNumbers(3, 2, -1), QuantumNumbers(4, 3, 3)):
        state = hydrogen_state(qn)
        for axis, probes in ((0, 0), (1, 0), (2, 2)):
            for op in (canonical_momentum(system, axis), naive_momentum(system, axis)):
                factor_calls.clear()
                expectation(op, state)
                assert factor_calls[("evaluate", "point")] == probes, axis
                assert factor_calls[("derivative", "point")] == 0


def test_boundary_term_matches_endpoint_probe():
    # the surface term from the zero ends and the table agrees with probing
    # the factor at each end, infinite ends at the outermost full-order node
    cfg = QuadratureConfig()
    ball = CoordinateSystem(
        "ball", (CoordinateSpec("r", 0.0, 1.7, "compact-nonperiodic", WEIGHTS["q^2"], "linear"),)
    )
    decay = FactorFunction(lambda q: np.exp(-np.asarray(q)), lambda q: -np.exp(-np.asarray(q)))
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
    )
    cases.append(SeparableState((lopsided,) + random_bound_trial(make_cartesian(), 0).factors[1:], make_cartesian()))
    for state in cases:
        coords = state.system.coords
        norms = [
            coordinate_integral(
                spec, lambda q, f=f: np.abs(np.asarray(f.evaluate(q))) ** 2, cfg.order_for(spec), state.radial_scale
            ).real
            for spec, f in zip(coords, state.factors)
        ]
        for axis, spec in enumerate(coords):
            nodes = quadrature.coordinate_rule(spec, cfg.order_for(spec), state.radial_scale).nodes
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
    defect = expectation(naive, state).hermiticity_defect
    assert defect == pytest.approx(si.hbar / (4.0 * si.a0), rel=1e-9)
    can = canonical_momentum(make_spherical(), 0, si)
    rep = expectation(can, state)
    assert abs(rep.hermiticity_defect) <= reality_tolerance(rep, "linear", si)


def test_check_suites_are_unit_covariant():
    # every bound is written in the natural units of what it compares, so
    # SI and any positive (hbar, m, e2) give the atomic-unit verdicts
    rng = np.random.default_rng(2024)
    constants = [PhysicalConstants(1.054571817e-34, 9.1093837015e-31, 2.3070775523e-28)]
    constants += [PhysicalConstants(*(10.0 ** rng.uniform(-3.0, 3.0, 3))) for _ in range(4)]
    atomic = run_check_suites(seed=3, reality_trials=5)
    for c in constants:
        results = run_check_suites(constants=c, seed=3, reality_trials=5)
        for res, ref in zip(results, atomic, strict=True):
            assert res.passed, (c, res)
            assert (res.name, res.checks) == (ref.name, ref.checks), c


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


def test_reality_scan_evaluates_each_trial_axis_once_per_family(monkeypatch):
    # the trial builders count array evaluations of the factors they make:
    # per family and axis, one raw-profile evaluation for the normalisation,
    # one table and one derivative, however many states the family has
    counts = collections.Counter()

    def counted(builder):
        def build(*args):
            factor = builder(*args)

            def wrap(name, fn):
                def call(q):
                    if np.ndim(q) > 0:
                        counts[name] += 1
                    return fn(q)

                return call

            return FactorFunction(wrap("evaluate", factor.evaluate), wrap("derivative", factor.derivative))

        return build

    for name in ("_poly_gaussian", "_sine_sum", "_fourier_sum"):
        monkeypatch.setattr(states, name, counted(getattr(states, name)))
    axes = sum(system.dim for system in preset_systems().values())
    for trials in (50, 5):
        counts.clear()
        result = analysis._suite_reality(QuadratureConfig(), ATOMIC, 0, trials)
        assert result.passed and result.checks == 6 * 30 + axes * trials  # 730 at 50 trials
        families = -(-trials // analysis._FAMILY_SIZE)  # per system
        assert counts == {"evaluate": 2 * axes * families, "derivative": axes * families}, trials
    cfg = QuadratureConfig()
    assert analysis._suite_ci_uniqueness(cfg, ATOMIC, 0).checks == 40
    assert analysis._suite_normalization(cfg, ATOMIC).checks == 42


def test_recurrence_suite_fails_without_condon_shortley_phase(monkeypatch):
    # the order-raising identity ties P_L^M to P_L^{M+1}, a climb from
    # another seed, so a dropped (-1)^M shows in every row with M < L
    assert analysis._suite_recurrence().passed
    climb = specfun._legendre_climb

    def no_phase(L, M, xi):
        p_l, p_lm1 = climb(L, M, xi)
        return (-1) ** abs(M) * p_l, (-1) ** abs(M) * p_lm1

    monkeypatch.setattr(specfun, "_legendre_climb", no_phase)
    result = analysis._suite_recurrence()
    assert not result.passed and result.checks == 121 and result.failures == 110
