"""States: hydrogen factors against textbook closed forms, trial states.

The radial oracles below are the standard normalized R_nl, typed in from
their closed forms before comparing, so the Laguerre plumbing cannot
validate itself.
"""

import json
import math

import numpy as np
import pytest

from curvimom.analysis import expectation, expectations
from curvimom.errors import (
    ConfigurationError,
    DomainError,
    UnsupportedAxisError,
)
from curvimom.geometry import make_cartesian, make_spherical, preset_systems
from curvimom.operators import canonical_momentum, naive_momentum
from curvimom.quadrature import QuadratureConfig, axis_rule, coordinate_integral
from curvimom.specfun import QuantumNumbers
from curvimom.states import (
    ATOMIC,
    FactorFunction,
    PhysicalConstants,
    SeparableState,
    apply_phase_twist,
    hydrogen_state,
    load_constants,
    phi_eigenfactor,
    random_bound_trial,
    state_overlap,
    theta_eigenfactor,
    trial_family,
)


def radial_oracles(a0):
    # textbook normalized radial functions
    return {
        (1, 0): lambda r: 2.0 * a0**-1.5 * np.exp(-r / a0),
        (2, 0): lambda r: (1.0 / (2.0 * math.sqrt(2.0)))
        * a0**-1.5
        * (2.0 - r / a0)
        * np.exp(-r / (2.0 * a0)),
        (2, 1): lambda r: (1.0 / (2.0 * math.sqrt(6.0)))
        * a0**-1.5
        * (r / a0)
        * np.exp(-r / (2.0 * a0)),
        (3, 2): lambda r: (2.0 * math.sqrt(2.0) / (81.0 * math.sqrt(15.0)))
        * a0**-1.5
        * (r / a0) ** 2
        * np.exp(-r / (3.0 * a0)),
    }


def test_hydrogen_radial_against_textbook_forms():
    r = np.linspace(0.05, 25.0, 60)
    for (n, L), oracle in radial_oracles(1.0).items():
        state = hydrogen_state(QuantumNumbers(n, L, 0))
        got = np.asarray(state.factors[0].evaluate(r))
        expected = oracle(r)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= 1e-13 * scale, f"(n,L)=({n},{L})"


def test_hydrogen_radial_scales_with_constants():
    constants = PhysicalConstants(hbar=2.0, m=0.5, e2=1.0)  # a0 = 8
    assert constants.a0 == pytest.approx(8.0)
    r = np.linspace(0.5, 40.0, 23)
    state = hydrogen_state(QuantumNumbers(2, 1, 0), constants)
    expected = radial_oracles(8.0)[(2, 1)](r)
    got = np.asarray(state.factors[0].evaluate(r))
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_factor_derivatives_match_finite_difference():
    h = 1e-6
    state = hydrogen_state(QuantumNumbers(3, 1, 1))
    r = np.linspace(0.2, 20.0, 31)
    fd = (np.asarray(state.factors[0].evaluate(r + h)) - np.asarray(state.factors[0].evaluate(r - h))) / (2 * h)
    dv = np.asarray(state.factors[0].derivative(r))
    assert np.max(np.abs(fd - dv)) <= 1e-7 * max(np.max(np.abs(dv)), 1e-3)

    theta = np.linspace(0.2, math.pi - 0.2, 31)
    fd = (np.asarray(state.factors[1].evaluate(theta + h)) - np.asarray(state.factors[1].evaluate(theta - h))) / (2 * h)
    dv = np.asarray(state.factors[1].derivative(theta))
    assert np.max(np.abs(fd - dv)) <= 1e-7 * max(np.max(np.abs(dv)), 1e-3)

    phi = np.linspace(0.0, 2.0 * math.pi, 17)
    fd = (np.asarray(state.factors[2].evaluate(phi + h)) - np.asarray(state.factors[2].evaluate(phi - h))) / (2 * h)
    dv = np.asarray(state.factors[2].derivative(phi))
    assert np.max(np.abs(fd - dv)) <= 1e-7


def test_angular_factors_are_unit_norm():
    sph = make_spherical()
    for L in range(0, 7):
        for M in range(-L, L + 1):
            th = theta_eigenfactor(L, M)
            norm = coordinate_integral(
                sph.coords[1], lambda q: np.abs(np.asarray(th.evaluate(q))) ** 2, 64
            )
            assert norm.real == pytest.approx(1.0, abs=1e-12), f"(L,M)=({L},{M})"
    for M in range(-5, 6):
        ph = phi_eigenfactor(M)
        norm = coordinate_integral(
            sph.coords[2], lambda q: np.abs(np.asarray(ph.evaluate(q))) ** 2, 32
        )
        assert norm.real == pytest.approx(1.0, abs=1e-13)


def test_hydrogen_state_equals_radial_times_spherical_harmonic(spherical_harmonic):
    state = hydrogen_state(QuantumNumbers(3, 2, -1))
    oracle_R = radial_oracles(1.0)[(3, 2)]
    for (r, th, ph) in [(1.0, 0.7, 0.3), (4.0, 2.1, 5.0), (9.0, 1.3, 3.3)]:
        got = state.evaluate((r, th, ph))
        expected = oracle_R(r) * complex(spherical_harmonic(2, -1, th, ph))
        assert got == pytest.approx(expected, rel=1e-12), (r, th, ph)


def test_phi_eigenfactor_requires_integer():
    with pytest.raises(DomainError):
        phi_eigenfactor(0.5)


def test_cached_constructors_validate_before_lookup():
    # the caches would take 1.0 for the key 1; the check runs first
    assert phi_eigenfactor(1) is phi_eigenfactor(np.int64(1))
    with pytest.raises(DomainError):
        phi_eigenfactor(1.0)
    assert theta_eigenfactor(2, 1) is theta_eigenfactor(2, 1)
    for L, M in ((2, 1.0), (2.0, 1), (1, 2), (-1, 0)):
        with pytest.raises(DomainError):
            theta_eigenfactor(L, M)
    a, b, c = (hydrogen_state(QuantumNumbers(*qn)) for qn in ((3, 2, 1), (4, 2, 1), (3, 2, -1)))
    assert a.factors[1] is b.factors[1] and a.factors[2] is b.factors[2]
    assert a.factors[0] is c.factors[0] and a.factors[0] is not b.factors[0]
    other_units = hydrogen_state(QuantumNumbers(3, 2, 1), PhysicalConstants(2.0, 1.0, 1.0))
    assert other_units.factors[0] is not a.factors[0] and other_units.factors[1] is a.factors[1]


def _counted(factor, calls):
    def evaluate(q):
        calls.append(np.ndim(q))
        return factor.evaluate(q)

    return FactorFunction(evaluate, factor.derivative)


def test_angular_tables_are_shared_across_radial_scales():
    calls = {axis: [] for axis in range(3)}
    qn = QuantumNumbers(3, 2, 1)
    base = hydrogen_state(qn)
    factors = tuple(_counted(f, calls[axis]) for axis, f in enumerate(base.factors))
    near = SeparableState(factors, base.system, radial_scale=1.0)
    far = SeparableState(factors, base.system, radial_scale=3.0)
    rules_n, values_n, norms_n = near.tabulate(QuadratureConfig(radial_scale=1.0))
    rules_f, values_f, norms_f = far.tabulate(QuadratureConfig(radial_scale=3.0))
    assert calls == {0: [1, 1], 1: [1], 2: [1]}
    for axis in (1, 2):
        assert values_n[axis] is values_f[axis] and norms_n[axis] == norms_f[axis]
    assert not np.array_equal(values_n[0], values_f[0])
    for rules, values in ((rules_n, values_n), (rules_f, values_f)):
        for f, rule, vals in zip(base.factors, rules, values):
            assert np.array_equal(vals, f.evaluate(rule.nodes))
            with pytest.raises(ValueError):
                vals[0] = 0.0
    # a second pass reads the memos
    assert far.tabulate(QuadratureConfig(radial_scale=3.0))[1][0] is values_f[0]
    assert calls == {0: [1, 1], 1: [1], 2: [1]}


def test_each_order_and_radial_scale_gets_its_own_table():
    calls = []
    sph = make_spherical()
    base = hydrogen_state(QuantumNumbers(2, 1, 0)).factors[0]
    radial = _counted(base, calls)
    seen = []
    for order, scale in ((120, 2.0), (120, 5.0), (60, 2.0)):
        rule, values, _ = radial.table(sph.coords[0], order, scale)
        assert np.array_equal(rule.nodes, axis_rule(sph.coords[0], order, scale).nodes)
        assert np.array_equal(values, base.evaluate(rule.nodes))
        seen.append(values)
    assert len(calls) == 3 and all(seen[i] is not seen[j] for i, j in ((0, 1), (0, 2), (1, 2)))
    calls.clear()
    base = theta_eigenfactor(2, 1)
    theta = _counted(base, calls)
    fine = theta.table(sph.coords[1], 64, 1.0)[1]
    assert theta.table(sph.coords[1], 64, 7.0)[1] is fine  # compact axes ignore the scale
    coarse = theta.table(sph.coords[1], 32, 1.0)[1]
    assert calls == [1, 1] and len(coarse) < len(fine)
    assert np.array_equal(coarse, base.evaluate(axis_rule(sph.coords[1], 32).nodes))
    # a derived factor starts with its own, empty memo
    trial = random_bound_trial(make_cartesian(), 3)
    trial.tabulate(QuadratureConfig(radial_scale=trial.radial_scale))
    twisted = apply_phase_twist(trial, 0, 1.5)
    spec = trial.system.coords[0]
    rule, values, _ = twisted.factors[0].table(spec, 120, trial.radial_scale)
    assert np.array_equal(values, twisted.factors[0].evaluate(rule.nodes))
    assert not np.array_equal(values, trial.factors[0].table(spec, 120, trial.radial_scale)[1])


def test_constants_atomic_and_file_loading(tmp_path):
    assert ATOMIC.hbar == 1.0 and ATOMIC.m == 1.0 and ATOMIC.e2 == 1.0
    assert ATOMIC.a0 == 1.0
    path = tmp_path / "si.json"
    path.write_text(json.dumps({"hbar": 1.054571817e-34, "m": 9.1093837015e-31, "e2": 2.3070775523e-28}))
    constants = load_constants(str(path))
    assert constants.a0 == pytest.approx(5.2917721e-11, rel=1e-6)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"hbar": 1.0, "m": 1.0}))
    with pytest.raises(ConfigurationError):
        load_constants(str(bad))
    with pytest.raises(ConfigurationError):
        PhysicalConstants(1.0, -1.0, 1.0)


def test_trial_states_normalized_and_deterministic():
    for system in preset_systems().values():
        a = random_bound_trial(system, 11)
        b = random_bound_trial(system, 11)
        c = random_bound_trial(system, 12)
        norm = state_overlap(a, a)
        assert abs(norm - 1.0) <= 1e-12, system.name

        point = []
        for spec in system.coords:
            if spec.topology in ("line",):
                point.append(0.37)
            elif spec.topology == "half-line":
                point.append(0.9)
            else:
                point.append(1.1)
        assert a.evaluate(point) == b.evaluate(point)  # bit-for-bit
        # different seeds give a genuinely different state
        diff = abs(a.evaluate(point) - c.evaluate(point))
        assert diff > 1e-3 * max(abs(a.evaluate(point)), 1e-3), system.name


def test_trial_seed_must_be_non_negative():
    with pytest.raises(DomainError):
        random_bound_trial(make_cartesian(), -1)


def test_trial_polar_factor_vanishes_at_poles():
    sph = make_spherical()
    for seed in range(5):
        trial = random_bound_trial(sph, seed)
        th = trial.factors[1]
        assert abs(complex(th.evaluate(0.0))) <= 1e-13
        assert abs(complex(th.evaluate(math.pi))) <= 1e-12


def test_trial_factor_derivatives_match_fd():
    h = 1e-6
    for system in preset_systems().values():
        trial = random_bound_trial(system, 3)
        grids = {
            "half-line": np.linspace(0.3, 3.0, 11),
            "line": np.linspace(-2.0, 2.0, 11),
            "compact-periodic": np.linspace(0.2, 6.0, 11),
            "compact-nonperiodic": np.linspace(0.3, math.pi - 0.3, 11),
        }
        for spec, factor in zip(system.coords, trial.factors):
            q = grids[spec.topology]
            fd = (np.asarray(factor.evaluate(q + h)) - np.asarray(factor.evaluate(q - h))) / (2 * h)
            dv = np.asarray(factor.derivative(q))
            scale = max(np.max(np.abs(dv)), 1e-3)
            assert np.max(np.abs(fd - dv)) <= 1e-6 * scale, (system.name, spec.name)


def test_phase_twist_preserves_magnitude_and_shifts_derivative():
    trial = random_bound_trial(make_cartesian(), 5)
    twisted = apply_phase_twist(trial, 0, 0.9)
    x = np.linspace(-2.0, 2.0, 9)
    base = np.asarray(trial.factors[0].evaluate(x))
    new = np.asarray(twisted.factors[0].evaluate(x))
    assert np.max(np.abs(np.abs(new) - np.abs(base))) <= 1e-14
    expected = (np.asarray(trial.factors[0].derivative(x)) + 1j * 0.9 * base) * np.exp(1j * 0.9 * x)
    got = np.asarray(twisted.factors[0].derivative(x))
    assert np.max(np.abs(got - expected)) <= 1e-13
    assert abs(state_overlap(twisted, twisted) - 1.0) <= 1e-12
    with pytest.raises(UnsupportedAxisError):
        apply_phase_twist(hydrogen_state(QuantumNumbers(1, 0, 0)), 0, 1.0)


def test_hydrogen_orthogonality():
    cfg = QuadratureConfig(radial_scale=2.0)
    s100 = hydrogen_state(QuantumNumbers(1, 0, 0))
    s200 = hydrogen_state(QuantumNumbers(2, 0, 0))
    s210 = hydrogen_state(QuantumNumbers(2, 1, 0))
    s211 = hydrogen_state(QuantumNumbers(2, 1, 1))
    assert abs(state_overlap(s100, s200, cfg)) <= 1e-12
    assert abs(state_overlap(s200, s210, cfg)) <= 1e-12
    assert abs(state_overlap(s210, s211, cfg)) <= 1e-12
    assert state_overlap(s210, s210, cfg).real == pytest.approx(1.0, abs=1e-12)


def test_state_shape_errors():
    trial = random_bound_trial(make_cartesian(), 1)
    with pytest.raises(ConfigurationError):
        trial.evaluate((1.0, 2.0))
    with pytest.raises(ConfigurationError):
        state_overlap(trial, random_bound_trial(make_spherical(), 1))
    with pytest.raises(DomainError):
        random_bound_trial(make_cartesian(), 1.5)


def test_trial_family_members_match_single_seed():
    # a family member's report is bit for bit the one-seed state's, wherever
    # the member sits in the family
    seeds = [0, 1, 2, 3] + list(range(7000, 7010))
    for system in preset_systems().values():
        family = trial_family(system, seeds)
        shuffled = trial_family(system, seeds[::-1])
        singles = [random_bound_trial(system, seed) for seed in seeds]
        for axis in range(system.dim):
            for op in (canonical_momentum(system, axis), naive_momentum(system, axis)):
                reports = expectations(op, family)
                assert reports[::-1] == expectations(op, shuffled)
                for seed, single, rep in zip(seeds, singles, reports):
                    alone = expectation(op, single)
                    assert rep.value == alone.value, (system.name, axis, seed)
                    assert rep.quadrature_error == alone.quadrature_error, (system.name, axis, seed)
                    assert rep.boundary_term == alone.boundary_term, (system.name, axis, seed)


def test_trial_states_keep_their_draws():
    # values of random_bound_trial(system, 11) from before trial families:
    # the generator calls, and so the states, are unchanged
    points = {
        "line": (-0.7, 0.37, 1.9),
        "half-line": (0.3, 0.9, 2.6),
        "compact-periodic": (0.4, 2.2, 5.1),
        "compact-nonperiodic": (0.2, 1.1, 2.8),
    }
    expected = {
        "cartesian": [0.02060715657466909, 0.3101908779100973, 0.0375305192811085],
        "spherical": [
            0.43805369877995837 - 0.03020411326747944j,
            -0.1282991957091941 + 0.023605340941432254j,
            0.0016121726406022802 - 0.0017931994680257396j,
        ],
        "cylindrical": [
            0.12024186126242649 + 0.011038505111937862j,
            -0.15310259839383816 - 0.19819538504067177j,
            -0.0011629035188807295 + 0.0009018451243174634j,
        ],
        "plane-polar": [
            0.5205343456805958 + 0.04778636138369548j,
            -0.23206903448729638 - 0.30041953649872066j,
            -0.002855274738644778 + 0.0022142985723458916j,
        ],
    }
    for name, system in preset_systems().items():
        state = random_bound_trial(system, 11)
        for k in range(3):
            point = [points[spec.topology][k] for spec in system.coords]
            assert complex(state.evaluate(point)) == expected[name][k], (name, k)


def test_trial_family_needs_valid_seeds():
    with pytest.raises(DomainError):
        trial_family(make_cartesian(), [])
    with pytest.raises(DomainError):
        trial_family(make_cartesian(), [3, -1])
