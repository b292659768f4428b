"""States: hydrogen factors against textbook closed forms, trial states.

The radial oracles below are the standard normalized R_nl, typed in from
their closed forms before comparing, so the Laguerre plumbing cannot
validate itself.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from curvimom import analysis, quadrature, states
from curvimom.analysis import expectation, expectations, radial_moment
from curvimom.errors import (
    ConfigurationError,
    DomainError,
    UnsupportedAxisError,
)
from curvimom.geometry import (
    CoordinateSystem,
    make_cartesian,
    make_cylindrical,
    make_plane_polar,
    make_spherical,
    preset_systems,
)
from curvimom.operators import (
    canonical_momentum,
    coordinate_scaled_state,
    momentum_unit,
    naive_momentum,
    operator_applied_state,
)
from curvimom.quadrature import QuadratureConfig, axis_rule, combine_axes, contract_rows, coordinate_integral
from curvimom.specfun import QuantumNumbers
from curvimom.states import (
    ATOMIC,
    FactorFunction,
    PhysicalConstants,
    SeparableState,
    apply_phase_twist,
    hydrogen_family,
    hydrogen_state,
    load_constants,
    random_bound_trial,
    state_overlap,
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


def test_hydrogen_radial_mean_is_in_units_of_a0():
    # states are in units of a0, and so is <r> = (3 n^2 - L(L+1)) / 2; the CLI
    # applies a0 to what it prints (the SI hydrogen-table fixture pins that)
    assert radial_moment(QuantumNumbers(2, 1, 0), 1) == pytest.approx(5.0, rel=1e-12)


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
            _, th, ph = hydrogen_state(QuantumNumbers(L + 1, L, M)).factors
            norm = coordinate_integral(
                axis_rule(sph.coords[1], 64), lambda q: np.abs(np.asarray(th.evaluate(q))) ** 2
            )
            assert norm.real == pytest.approx(1.0, abs=1e-12), f"(L,M)=({L},{M})"
            norm = coordinate_integral(
                axis_rule(sph.coords[2], 32), lambda q: np.abs(np.asarray(ph.evaluate(q))) ** 2
            )
            assert norm.real == pytest.approx(1.0, abs=1e-13), f"M={M}"


def test_hydrogen_state_equals_radial_times_spherical_harmonic(spherical_harmonic):
    state = hydrogen_state(QuantumNumbers(3, 2, -1))
    oracle_R = radial_oracles(1.0)[(3, 2)]
    for (r, th, ph) in [(1.0, 0.7, 0.3), (4.0, 2.1, 5.0), (9.0, 1.3, 3.3)]:
        got = state.evaluate((r, th, ph))
        expected = oracle_R(r) * complex(spherical_harmonic(2, -1, th, ph))
        assert got == pytest.approx(expected, rel=1e-12), (r, th, ph)


def test_cached_constructors_validate_before_lookup():
    # the caches would take 1.0 for the key 1; QuantumNumbers checks (n, L, M) first
    a, b, c = (hydrogen_state(QuantumNumbers(*qn)) for qn in ((3, 2, 1), (4, 2, 1), (3, 2, -1)))
    assert a.factors[1] is b.factors[1] and a.factors[2] is b.factors[2]
    assert a.factors[0] is c.factors[0] and a.factors[0] is not b.factors[0]
    # a hydrogen state reads the caches unchecked (its QuantumNumbers checked (L, M)),
    # so numpy integers get the factors plain ones do
    state = hydrogen_state(QuantumNumbers(np.int64(3), np.int64(2), np.int64(-1)))
    assert all(f is g for f, g in zip(state.factors, c.factors))


def _counted(factor, calls, scale=None):
    # the factor, counting its evaluations, on its own map scale or on ``scale``
    def evaluate(q):
        calls.append(np.ndim(q))
        return factor.evaluate(q)

    scale = factor.scale if scale is None else scale
    return FactorFunction(evaluate, factor.derivative, spec=factor.spec, scale=scale)


def test_angular_tables_are_shared_across_radial_scales():
    # (3, 2, 1) and (4, 2, 1) share their theta and phi factors, and with them
    # the tables, while each radial factor sits on its own n a0 rule
    calls = {axis: [] for axis in range(3)}
    near_base, far_base = (hydrogen_state(QuantumNumbers(n, 2, 1)) for n in (3, 4))
    angular = tuple(_counted(f, calls[axis]) for axis, f in enumerate(near_base.factors) if axis)
    assert far_base.factors[1:] == near_base.factors[1:]
    near = SeparableState((_counted(near_base.factors[0], calls[0]),) + angular, near_base.system)
    far = SeparableState((_counted(far_base.factors[0], calls[0]),) + angular, far_base.system)
    cfg = QuadratureConfig()
    values_n, norms_n = near.tabulate(cfg)
    values_f, norms_f = far.tabulate(cfg)
    assert calls == {0: [1, 1], 1: [1], 2: [1]}
    for axis in (1, 2):
        assert values_n[axis] is values_f[axis] and norms_n[axis].tobytes() == norms_f[axis].tobytes()
    assert not np.array_equal(near.factors[0].rule(cfg).nodes, far.factors[0].rule(cfg).nodes)
    for state, base, values in ((near, near_base, values_n), (far, far_base, values_f)):
        for f, counted, vals in zip(base.factors, state.factors, values):
            assert np.array_equal(vals, f.evaluate(counted.rule(cfg).nodes))
            with pytest.raises(ValueError):
                vals[0] = 0.0
    # a second pass reads the memos
    assert far.tabulate(cfg)[0][0] is values_f[0]
    assert calls == {0: [1, 1], 1: [1], 2: [1]}


def test_each_order_and_radial_scale_gets_its_own_table():
    calls = []
    sph = make_spherical()
    base = hydrogen_state(QuantumNumbers(2, 1, 0)).factors[0]
    radial = {scale: _counted(base, calls, scale) for scale in (2.0, 5.0)}
    seen = []
    for order, scale in ((120, 2.0), (120, 5.0), (60, 2.0)):
        f, cfg = radial[scale], QuadratureConfig(radial_order=order)
        rule, (values, _) = f.rule(cfg), f.table(cfg)
        assert np.array_equal(rule.nodes, axis_rule(sph.coords[0], order, scale).nodes)
        assert np.array_equal(values, base.evaluate(rule.nodes))
        seen.append(values)
    assert len(calls) == 3 and all(seen[i] is not seen[j] for i, j in ((0, 1), (0, 2), (1, 2)))
    calls.clear()
    base = hydrogen_state(QuantumNumbers(3, 2, 1)).factors[1]
    theta, wide = _counted(base, calls), _counted(base, [], 7.0)
    fine = theta.table(QuadratureConfig())[0]
    assert wide.rule(QuadratureConfig()) is theta.rule(QuadratureConfig())  # compact axes ignore the scale
    assert np.array_equal(wide.table(QuadratureConfig())[0], fine)
    # the memo is keyed on the factor's own order: other axes' orders read the same table
    assert theta.table(QuadratureConfig(radial_order=8, phi_order=8))[0] is fine
    coarse = theta.table(QuadratureConfig(theta_order=32))[0]
    assert calls == [1, 1] and len(coarse) < len(fine)
    assert np.array_equal(coarse, base.evaluate(axis_rule(sph.coords[1], 32).nodes))


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


def test_constants_must_be_json_numbers(tmp_path):
    # a boolean is an int to Python and a numeric string converts to a float, but
    # neither is a JSON number; integers are numbers and load as floats
    path = tmp_path / "si.json"
    for bad in (True, "1.0", None, [1.0], 10**400):
        path.write_text(json.dumps({"hbar": bad, "m": 1, "e2": 1}))
        with pytest.raises(ConfigurationError, match="not a JSON object of numbers"):
            load_constants(str(path))
    path.write_text(json.dumps({"hbar": 2, "m": 1, "e2": 1.0}))
    constants = load_constants(str(path))
    assert (constants.hbar, constants.a0) == (2.0, 4.0) and type(constants.m) is float



def test_an_unreadable_constants_file_is_a_configuration_error(tmp_path):
    # a missing path or a directory is refused as a malformed file is, not as a raw OSError
    for path, reason in ((tmp_path / "missing.json", "No such file"), (tmp_path, "Is a directory")):
        with pytest.raises(ConfigurationError, match=f"cannot be read: {reason}"):
            load_constants(str(path))

def test_a_factor_must_name_its_scale():
    # a factor's coordinate and scale pick the rule its tables sit on: there is no default to fall back on
    factor = hydrogen_state(QuantumNumbers(2, 1, 0)).factors[0]
    for missing in ({"spec": factor.spec}, {"scale": 2.0}):
        with pytest.raises(TypeError):
            FactorFunction(factor.evaluate, factor.derivative, **missing)
    assert factor.scale == 2.0 and factor.spec is make_spherical().coords[0]
    stacked = hydrogen_family([QuantumNumbers(n, 1, 0) for n in (2, 3)]).factors
    assert stacked[0].scale == (2.0, 3.0) and stacked[1].scale == (1.0, 1.0)
    assert tuple(f.spec for f in stacked) == make_spherical().coords
    family = trial_family(make_cartesian(), range(3))
    lone = [random_bound_trial(make_cartesian(), seed).factors[0].scale for seed in range(3)]
    assert all(f.scale == tuple(lone) for f in family.factors)


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
    cfg = QuadratureConfig()
    s100 = hydrogen_state(QuantumNumbers(1, 0, 0))
    s200 = hydrogen_state(QuantumNumbers(2, 0, 0))
    s210 = hydrogen_state(QuantumNumbers(2, 1, 0))
    s211 = hydrogen_state(QuantumNumbers(2, 1, 1))
    assert abs(state_overlap(s100, s200, cfg)) <= 1e-12
    assert abs(state_overlap(s200, s210, cfg)) <= 1e-12
    assert abs(state_overlap(s210, s211, cfg)) <= 1e-12
    assert state_overlap(s210, s210, cfg).real == pytest.approx(1.0, abs=1e-12)
    # a config carries no map scale: each level is read at its own n a0
    for n in range(1, 9):
        for L in range(n):
            s = hydrogen_state(QuantumNumbers(n, L, 0))
            assert abs(state_overlap(s, s, cfg) - 1.0) <= 1e-12, (n, L)


def test_overlap_reads_each_axis_on_the_wider_factors_rule():
    # <1s|2s> and <2s|1s> sum on the n = 2 radial rule, the 1s factor evaluated on its
    # nodes; the shared theta and phi factors are read from their tables
    cfg = QuadratureConfig()
    narrow, wide = hydrogen_state(QuantumNumbers(1, 0, 0)), hydrogen_state(QuantumNumbers(2, 0, 0))
    for a, b in ((narrow, wide), (wide, narrow)):
        pairs = []
        for axis, (fa, fb) in enumerate(zip(a.factors, b.factors)):
            rule = wide.factors[axis].rule(cfg)
            va, vb = (np.asarray(f.evaluate(rule.nodes)) for f in (fa, fb))
            pairs.append(contract_rows(rule, np.conj(va) * vb))
        assert state_overlap(a, b, cfg) == complex(combine_axes(pairs)[0][0])


def test_overlap_of_differently_placed_trial_states_matches_a_fine_reference():
    # two trial states' linear factors sit on hermite rules at different peaks, which 8 nodes
    # do not integrate together: each axis falls back to its mapped rule at the wider scale,
    # within 1e-13 of that rule at order 400 on every system
    for system in preset_systems().values():
        a, b = random_bound_trial(system, 4), random_bound_trial(system, 9)
        reference = 1.0 + 0j
        for fa, fb in zip(a.factors, b.factors):
            rule = axis_rule(fa.spec, 400, max(fa.scale, fb.scale))
            reference *= coordinate_integral(rule, lambda q: np.conj(fa.evaluate(q)) * fb.evaluate(q))
        assert abs(reference) > 1e-3, system.name
        assert abs(state_overlap(a, b) - reference) <= 1e-13, system.name
        assert abs(state_overlap(a, a) - 1.0) <= 1e-14, system.name


def _fine_overlap(a, b):
    # each axis on its mapped rule at order 400 and the wider scale
    total = 1.0 + 0j
    for fa, fb in zip(a.factors, b.factors):
        rule = axis_rule(fa.spec, 400, max(fa.scale, fb.scale))
        total *= coordinate_integral(rule, lambda q: np.conj(fa.evaluate(q)) * fb.evaluate(q))
    return total


def test_overlap_of_a_trial_state_with_its_phase_twist_matches_a_fine_reference():
    # |f|^2 e^(ikq) is not a polynomial times a Gaussian, so it is not summed on the 8 hermite nodes:
    # within 1e-13 of the order-400 mapped rule on every line axis of every system
    twisted_axes = 0
    for system in preset_systems().values():
        for axis, spec in enumerate(system.coords):
            if spec.topology != "line":
                continue
            trial = random_bound_trial(system, 6)
            for k in (1.5, 3.0):
                twisted = apply_phase_twist(trial, axis, k)
                assert twisted.factors[axis].peak == trial.factors[axis].peak
                reference = _fine_overlap(trial, twisted)
                assert abs(reference) > 1e-3, (system.name, spec.name, k)
                assert abs(state_overlap(trial, twisted) - reference) <= 1e-13, (system.name, spec.name, k)
                assert abs(state_overlap(twisted, trial) - reference.conjugate()) <= 1e-13, (system.name, spec.name, k)
            twisted_axes += 1
    assert twisted_axes >= 3


def test_moments_of_trial_linear_factors_match_a_fine_reference():
    # a moment's kernel need not be a polynomial: on a trial linear factor it is summed on the
    # mapped rule, within 1e-13 (relative) of order 400, for a lone state and a family alike
    kernels = (np.tanh, lambda q: np.cos(2.5 * q), lambda q: 1.0 / (1.0 + q * q))
    for system in preset_systems().values():
        for state in (random_bound_trial(system, 7), trial_family(system, range(7, 10))):
            for axis, f in enumerate(state.factors):
                if f.peak is None:
                    continue
                rule = axis_rule(f.spec, 400, f.scale)
                for kernel in kernels:
                    got = state.moments(axis, kernel, QuadratureConfig())
                    want = coordinate_integral(rule, lambda q: np.abs(f.evaluate(q)) ** 2 * kernel(q)).real
                    want = np.reshape(want, -1)
                    assert np.allclose(got, want, rtol=1e-13, atol=0.0), (system.name, f.spec.name)


def test_state_shape_errors():
    trial = random_bound_trial(make_cartesian(), 1)
    with pytest.raises(ConfigurationError):
        trial.evaluate((1.0, 2.0))
    with pytest.raises(ConfigurationError):
        state_overlap(trial, random_bound_trial(make_spherical(), 1))
    # a system that only shares a preset's name is another system
    impostor = CoordinateSystem("spherical", make_cylindrical().coords)
    with pytest.raises(ConfigurationError):
        state_overlap(hydrogen_state(QuantumNumbers(1, 0, 0)), random_bound_trial(impostor, 0))
    with pytest.raises(DomainError):
        random_bound_trial(make_cartesian(), 1.5)
    factors = hydrogen_state(QuantumNumbers(2, 1, 0)).factors
    for wrong in (factors[:2], factors + factors[:1]):
        with pytest.raises(ConfigurationError, match=f"{len(wrong)} factors"):
            SeparableState(wrong, make_spherical())


def test_a_state_refuses_a_factor_on_another_coordinate():
    # each factor names the coordinate its tables sit on: swapped axes, and the plane-polar r
    # (weight r) in place of the spherical r (weight r^2), the same name on another rule, are refused
    r, theta, phi = hydrogen_state(QuantumNumbers(2, 1, 0)).factors
    polar_r = random_bound_trial(make_plane_polar(), 0).factors[0]
    assert polar_r.spec.name == r.spec.name
    for factors in ((theta, r, phi), (r, phi, theta), (polar_r, theta, phi)):
        with pytest.raises(ConfigurationError, match="in order"):
            SeparableState(factors, make_spherical())


_DERIVERS = {
    "momentum-applied": lambda state, axis: operator_applied_state(canonical_momentum(state.system, axis), state),
    "coordinate-scaled": coordinate_scaled_state,
    "phase-twisted": lambda state, axis: apply_phase_twist(state, axis, 1.5),
    "on-points": lambda state, axis: dataclasses.replace(state, factors=tuple(
        analysis._on_points(f, np.linspace(0.1, 1.0, 5)) if j == axis else f for j, f in enumerate(state.factors)
    )),
}


@pytest.mark.parametrize("name", sorted(_DERIVERS))
def test_a_derived_factor_keeps_its_coordinate_and_scale(name):
    # a factor derived from another keeps its spec and scale, one or a family's k, so its state
    # accepts it; it starts an empty memo of its own on the base factor's rule
    cfg = QuadratureConfig()
    states_ = [hydrogen_state(QuantumNumbers(3, 1, 0)), random_bound_trial(make_cartesian(), 3)]
    states_ += [trial_family(system, range(3)) for system in (make_spherical(), make_cylindrical())]
    for state in states_:
        for axis, base in enumerate(state.factors):
            if name == "phase-twisted" and base.spec.topology != "line":
                continue
            factor = _DERIVERS[name](state, axis).factors[axis]
            assert factor is not base and factor.spec is base.spec and factor.scale == base.scale
            nodes, base_values = base.rule(cfg).nodes, base.table(cfg)[0]
            assert np.array_equal(factor.rule(cfg).nodes, nodes)
            values = factor.table(cfg)[0]
            assert values is not base_values and np.array_equal(values, factor.evaluate(nodes))


@pytest.mark.parametrize("name", sorted(_DERIVERS))
def test_a_derived_stack_tabulates_each_members_derived_row(name):
    # a stack gives part i row i of (k, n) nodes, and shares nodes of one dimension or none, so a
    # factor derived from a stack tabulates (k, n) rows, each the member's own derived table bit
    # for bit: on a three-level hydrogen family and on stacks of three lone Cartesian trial states
    cfg = QuadratureConfig()
    hydrogen = [QuantumNumbers(*qn) for qn in ((1, 0, 0), (2, 1, 1), (3, 2, -1))]
    trials = [random_bound_trial(make_cartesian(), seed) for seed in range(3)]
    cases = [([hydrogen_state(qn) for qn in hydrogen], hydrogen_family(hydrogen).factors)]
    cases.append((trials, tuple(states._stacked(parts) for parts in zip(*[s.factors for s in trials]))))
    for members, factors in cases:
        system = members[0].system
        stack = SeparableState(factors, system)
        for axis, spec in enumerate(system.coords):
            if name == "phase-twisted" and spec.topology != "line":
                continue
            derived = _DERIVERS[name](stack, axis).factors[axis]
            values, norms = derived.table(cfg)
            for i, member in enumerate(members):
                alone = _DERIVERS[name](member, axis).factors[axis]
                assert values.shape == (len(members),) + alone.table(cfg)[0].shape, (spec.name, i)
                assert np.array_equal(values[i], alone.table(cfg)[0]), (spec.name, i)
                assert np.array_equal(norms[i], alone.table(cfg)[1][0]), (spec.name, i)
                if name != "momentum-applied":  # which has no derivative
                    assert np.array_equal(derived.derivative_table(cfg)[i], alone.derivative_table(cfg))


def test_overlap_refuses_a_family():
    # a family's factors carry k members, so its overlap is not one number: it is refused,
    # where it once read member 0 (0.8110 below, against the members' 0.8110, 0.8470, 0.8164)
    cartesian = make_cartesian()
    a, b = trial_family(cartesian, [1, 2, 3]), trial_family(cartesian, [4, 5, 6])
    lone = random_bound_trial(cartesian, 1)
    hydrogen = hydrogen_family([QuantumNumbers(1, 0, 0), QuantumNumbers(2, 0, 0)])
    for pair in ((a, b), (a, lone), (lone, b),
                 (hydrogen, hydrogen_state(QuantumNumbers(1, 0, 0)))):
        with pytest.raises(ConfigurationError, match="not a family"):
            state_overlap(*pair)
    pairs = [(random_bound_trial(cartesian, i), random_bound_trial(cartesian, j)) for i, j in ((1, 4), (2, 5), (3, 6))]
    assert [round(state_overlap(*pair).real, 4) for pair in pairs] == [0.8110, 0.8470, 0.8164]


def test_trial_linear_factors_tabulate_on_their_hermite_rules():
    # a trial linear factor's table sits on its hermite rule at its own width and centre, the
    # same 8 + 4 nodes at every radial order; its angular factors keep their mapped rules
    # at every radial order, and the process holds at most the line's and the half-line's hermite rule
    nodes = {"line": np.polynomial.hermite.hermgauss(8)[0], "half-line": quadrature._hermite_rule(8, True).nodes}
    assert quadrature.HERMITE_ORDER == 8
    configs = [QuadratureConfig(radial_order=order) for order in (8, 120, 4096)]
    for system in preset_systems().values():
        for state in (random_bound_trial(system, 5), trial_family(system, range(3))):
            for cfg in configs:
                state.tabulate(cfg)
            for f in state.factors:
                if f.spec.topology not in ("line", "half-line"):
                    assert f.peak is None
                    continue
                rule = f.rule(QuadratureConfig())
                assert f.peak is not None and all(f.rule(cfg) is rule for cfg in configs)
                width, center = (np.reshape(p, (-1, 1)) for p in f.peak)
                if f.spec.topology == "half-line":
                    assert not center.any()
                assert np.reshape(rule.nodes, (-1, 12)).shape[0] == np.size(width)
                x = (np.reshape(rule.nodes, (-1, 12))[:, : rule.full] - center) / width
                assert np.allclose(x, nodes[f.spec.topology], rtol=0.0, atol=1e-14), (system.name, f.spec.name)
                assert np.array_equal(f.table(QuadratureConfig())[0], f.evaluate(rule.nodes))
    assert quadrature._stacked_hermite_rule.cache_info().currsize <= 2


def test_a_stack_refuses_parts_of_different_kinds():
    # a stack's rule is of one kind: a trial linear factor beside a copy of itself that names no
    # peak is refused; two members at their own peaks, a derived one too, stack theirs
    for system in preset_systems().values():
        for f in random_bound_trial(system, 0).factors:
            if f.peak is not None:
                mapped = FactorFunction(f.evaluate, f.derivative, spec=f.spec, scale=f.scale)
                with pytest.raises(ConfigurationError):
                    states._stacked((f, mapped))
                g = random_bound_trial(system, 1).factors[system.coords.index(f.spec)].derived(f.evaluate, f.derivative)
                assert states._stacked((f, g)).peak == tuple(zip(f.peak, g.peak))


def _fields(report):
    # a report's value, boundary term and estimate as Python numbers, a list per field on a
    # family's report, so == compares every member's every field bit for bit
    return [np.asarray(field).tolist() for field in (report.value, report.boundary_term, report.quadrature_error)]


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
                report = _fields(expectations(op, family))
                assert [field[::-1] for field in report] == _fields(expectations(op, shuffled))
                for seed, single, *fields in zip(seeds, singles, *report):
                    assert fields == _fields(expectation(op, single)), (system.name, axis, seed)


@pytest.mark.parametrize(
    "constants", [ATOMIC, PhysicalConstants(1.054571817e-34, 9.1093837015e-31, 2.3070775523e-28)], ids=["atomic", "si"]
)
def test_hydrogen_family_members_match_single_state(constants):
    # a hydrogen family member's report is bit for bit the lone state's on
    # every axis, wherever the member sits in the family: the n <= 4 levels
    # and the p_theta scan's n = L + 1 levels up to L = 10; the natural
    # values, and so the values in either set of units
    system = make_spherical()
    levels = [(n, L, M) for n in range(1, 5) for L in range(n) for M in range(-L, L + 1)]
    scan = [(L + 1, L, M) for L in range(11) for M in range(-L, L + 1)]
    for numbers in (levels, scan):
        qns = [QuantumNumbers(*qn) for qn in numbers]
        states = [hydrogen_state(qn) for qn in qns]
        family, reversed_family = hydrogen_family(qns), hydrogen_family(qns[::-1])
        for axis in range(3):
            for op in (canonical_momentum(system, axis), naive_momentum(system, axis)):
                report = _fields(expectations(op, family))
                assert [field[::-1] for field in report] == _fields(expectations(op, reversed_family))
                unit = momentum_unit(op.kind, constants)
                for qn, state, *fields in zip(qns, states, *report):
                    alone = expectation(op, state)
                    assert fields == _fields(alone), (qn, axis)
                    assert fields[0] * unit == alone.value * unit, (qn, axis)


def test_stacked_factors_are_kept_within_their_bound():
    # each new tuple of members' factors is a new stack, and no more stacks
    # are kept than the bound, however many families are built
    bound = states._stacked.cache_info().maxsize
    assert bound is not None
    for n in range(2, 2 + bound):
        hydrogen_family([QuantumNumbers(n, L, 0) for L in (0, 1)])
        assert states._stacked.cache_info().currsize <= bound
    assert states._stacked.cache_info().currsize == bound
    pair = [QuantumNumbers(2, L, 0) for L in (0, 1)]
    assert all(a is b for a, b in zip(hydrogen_family(pair).factors, hydrogen_family(pair).factors))


def test_hydrogen_family_needs_hydrogen_states():
    with pytest.raises(DomainError):
        hydrogen_family([])
    with pytest.raises(DomainError):
        hydrogen_family([QuantumNumbers(1, 0, 0), hydrogen_state(QuantumNumbers(2, 0, 0))])


def test_trial_states_keep_their_draws():
    # values of random_bound_trial(system, 11), each factor normalised on the rule it
    # tabulates on; the draws behind them are pinned bit for bit by
    # test_trial_members_keep_the_lone_state_stream
    points = {
        "line": (-0.7, 0.37, 1.9),
        "half-line": (0.3, 0.9, 2.6),
        "compact-periodic": (0.4, 2.2, 5.1),
        "compact-nonperiodic": (0.2, 1.1, 2.8),
    }
    expected = {
        "cartesian": [0.020607156574669074, 0.31019087791009703, 0.03753051928110847],
        "spherical": [
            0.43805369877995853 - 0.030204113267479453j,
            -0.12829919570919418 + 0.023605340941432268j,
            0.001612172640602281 - 0.0017931994680257402j,
        ],
        "cylindrical": [
            0.12024186126242653 + 0.011038505111937866j,
            -0.15310259839383822 - 0.1981953850406718j,
            -0.0011629035188807297 + 0.0009018451243174635j,
        ],
        "plane-polar": [
            0.5205343456805961 + 0.047786361383695505j,
            -0.2320690344872965 - 0.3004195364987208j,
            -0.002855274738644779 + 0.0022142985723458924j,
        ],
    }
    for name, system in preset_systems().items():
        state = random_bound_trial(system, 11)
        for k in range(3):
            point = [points[spec.topology][k] for spec in system.coords]
            assert complex(state.evaluate(point)) == expected[name][k], (name, k)


def _lone_state_draws(system, seed) -> list:
    # each axis's parameters from a lone state's generator calls, one call per parameter
    # group: a scale, a center (line only) and three coefficients, or the harmonics' coefficients
    rng = np.random.default_rng(seed)
    params = []
    for spec in system.coords:
        if spec.topology in ("line", "half-line"):
            scale = 0.8 + 0.4 * rng.random()
            center = rng.uniform(-0.5, 0.5) if spec.topology == "line" else 0.0
            params.append([scale, center, *rng.uniform(0.4, 1.0, 3).tolist()])
        else:
            periodic = spec.topology == "compact-periodic"
            coeffs = rng.uniform(0.2, 1.0, 5 if periodic else 4)
            params.append([coeffs / math.sqrt(2.0 * math.pi) if periodic else coeffs])
    return params


def test_trial_members_keep_the_lone_state_stream(monkeypatch):
    # one generator call per member gives every member, in a family or alone, the
    # parameters of the per-axis calls above, bit for bit: row i of each of a family's
    # parameter columns, and Python floats on a lone state's linear axes
    made = {}
    for name in ("_poly_gaussian", "_sine_sum", "_fourier_sum"):
        builder = getattr(states, name)

        def build(*args, builder=builder, **kwargs):
            factor = builder(*args, **kwargs)
            made[factor] = args[:-1]  # the parameters, without the normalisation constant
            return factor

        monkeypatch.setattr(states, name, build)
    seeds = range(200)
    for system in preset_systems().values():
        family = trial_family(system, seeds)
        draws = [_lone_state_draws(system, seed) for seed in seeds]
        for axis, (spec, factor) in enumerate(zip(system.coords, family.factors)):
            params, expected = made[factor], [draw[axis] for draw in draws]
            assert len(params) == len(expected[0]), (system.name, spec.name)
            if spec.kind == "linear":  # one (k, 1) column per parameter
                assert np.array_equal(np.concatenate(params, axis=1), expected), (system.name, spec.name)
            else:  # the harmonics' coefficients as one (k, 1, m) array
                assert np.array_equal(params[0][:, 0], [row[0] for row in expected]), (system.name, spec.name)
        for seed in seeds[::10]:
            alone = random_bound_trial(system, seed)
            for spec, factor, expected in zip(system.coords, alone.factors, draws[seed]):
                params = made[factor]
                assert len(params) == len(expected), (system.name, seed)
                if spec.kind == "linear":
                    assert list(params) == expected and all(type(p) is float for p in params), (system.name, seed)
                else:
                    assert np.array_equal(params[0], expected[0]), (system.name, seed, spec.name)


def test_trial_draws_come_once_per_seed_from_a_read_only_cache():
    # a system drawing more uniforms than any preset (four line axes, 20 uniforms) reads each
    # seed's first 20, a lone state's stream; a preset family built next reads its seeds' first
    # 15 and is the family a cleared cache gives, and no cached draw can be written
    line = make_cartesian().coords[0]
    wide = CoordinateSystem("four-lines", tuple(dataclasses.replace(line, name=name) for name in "wxyz"))
    seeds = range(60, 64)
    states._uniforms.cache_clear()
    trial_family(wide, seeds)
    for seed in seeds:  # the family's own draws, read back from the cache
        drawn = states._uniforms(seed, 20)
        assert drawn.tobytes() == np.random.default_rng(seed).random(20).tobytes()
        assert not drawn.flags.writeable
        with pytest.raises(ValueError):
            drawn[0] = 0.5
    assert states._uniforms.cache_info()[:2] == (len(seeds), len(seeds))  # hits, misses
    config = QuadratureConfig()

    def numbers(system):
        family = trial_family(system, seeds)
        reports = [_fields(expectations(canonical_momentum(system, axis), family)) for axis in range(system.dim)]
        return family.norms(config).tolist(), reports

    for system in preset_systems().values():
        after_wide = numbers(system)
        states._uniforms.cache_clear()
        assert numbers(system) == after_wide, system.name
        assert all(not states._uniforms(seed, 15).flags.writeable for seed in seeds)
    # the four presets share one draw per seed
    states._uniforms.cache_clear()
    for system in preset_systems().values():
        trial_family(system, seeds)
    assert states._uniforms.cache_info().misses == len(seeds)


def test_trial_family_asks_no_linear_axis_for_its_mapped_rule(monkeypatch):
    # each trial factor is normalised on the rule it tabulates on: a line or half-line factor on
    # the hermite rule at its peak, so building a family never asks for the mapped rule there
    calls = []

    def spy(spec, order, scale=1.0):
        calls.append(spec.topology)
        return axis_rule(spec, order, scale)

    monkeypatch.setattr(states, "axis_rule", spy)
    for system in preset_systems().values():
        for seeds in ([5], range(10, 14)):
            trial_family(system, seeds)
    assert calls and not {"line", "half-line"} & set(calls)


def test_trial_family_needs_valid_seeds():
    with pytest.raises(DomainError):
        trial_family(make_cartesian(), [])
    with pytest.raises(DomainError):
        trial_family(make_cartesian(), [3, -1])


def test_family_norms_are_the_combined_full_order_sums():
    # <psi|psi> is the product of the full-order |f|^2 sums in axis order, bit for bit
    # the scalar product 1 * n_0 * n_1 * ... of Python floats, on a family and on a lone state
    qns = [QuantumNumbers(L + 1, L, M) for L in range(11) for M in range(-L, L + 1)]
    families = [hydrogen_family(qns)]
    families += [trial_family(system, range(900, 903)) for system in preset_systems().values()]
    families.append(random_bound_trial(make_cartesian(), 4))
    for cfg in (QuadratureConfig(), QuadratureConfig(8, 8, 8)):
        for family in families:
            sums = [axis_sums[:, 0].real.tolist() for axis_sums in family.tabulate(cfg)[1]]
            expected = [math.prod(fulls) for fulls in zip(*sums)]
            norms = family.norms(cfg)
            assert norms.shape == (len(expected),)
            assert [x.hex() for x in norms.tolist()] == [x.hex() for x in expected]
    assert max(abs(x - 1.0) for x in families[0].norms(QuadratureConfig(theta_order=8))) > 0.5


def _contracted(factor, cfg, drift):
    # the momentum sums formed afresh, as expectations formed them before the memo
    rule, values, slopes = factor.rule(cfg), factor.table(cfg)[0], factor.derivative_table(cfg)
    return contract_rows(rule, np.conj(values) * -1j * (slopes + drift(rule.nodes) * values))


def test_momentum_sums_are_the_parts_and_the_contraction_bit_for_bit():
    # a stack concatenates its parts' memoised rows, and every factor's memo holds what the
    # contraction gives, canonical and naive, on each axis of a hydrogen and of each trial family
    families = [hydrogen_family(analysis._LEVELS)]  # every level with n <= 4
    families += [trial_family(system, range(40, 43)) for system in preset_systems().values()]
    for family in families:
        for cfg in (QuadratureConfig(), QuadratureConfig(8, 8, 8)):
            for axis, factor in enumerate(family.factors):
                for op in (canonical_momentum(family.system, axis), naive_momentum(family.system, axis)):
                    sums = factor.momentum_sums(cfg, op.drift)
                    assert not sums.flags.writeable and sums.shape == (len(family.norms(cfg)), 2)
                    assert sums.tobytes() == _contracted(factor, cfg, op.drift).tobytes()
                    assert factor.momentum_sums(cfg, op.drift) is sums
                    if factor.parts:
                        parts = np.concatenate([_contracted(part, cfg, op.drift) for part in factor.parts])
                        assert sums.tobytes() == parts.tobytes()


def test_an_ad_hoc_drift_is_summed_but_not_kept():
    # only the drifts an operator carries are kept: a cached hydrogen factor's memo does not grow
    # with other drifts, which are summed afresh, to the canonical bits when they compute the same;
    # at each order it holds the rule, the table, the slopes and those two drifts' momentum sums
    state = hydrogen_state(QuantumNumbers(3, 2, 1))
    canonical, naive, factor = canonical_momentum(state.system, 1), naive_momentum(state.system, 1), state.factors[1]
    momenta = lambda: {(order, drift) for what, order, drift in factor._memo if what == "momenta"}
    for cfg in (QuadratureConfig(), QuadratureConfig(theta_order=32)):
        expectation(canonical, state, cfg)
        size = len(momenta())
        for _ in range(3):
            ad_hoc = dataclasses.replace(canonical, drift=lambda q: canonical.drift(q))
            assert expectation(ad_hoc, state, cfg) == expectation(canonical, state, cfg)
            doubled = dataclasses.replace(canonical, drift=lambda q: 2.0 * canonical.drift(q))
            assert expectation(doubled, state, cfg).value != expectation(canonical, state, cfg).value
        assert len(momenta()) == size
        expectation(naive, state, cfg)
        assert {(cfg.theta_order, canonical.drift), (cfg.theta_order, naive.drift)} <= momenta()
        assert {drift for _, drift in momenta()} == {canonical.drift, naive.drift}
    for order in (64, 32):
        kept = sorted(what for what, at, _ in factor._memo if at == order)
        assert kept == ["momenta", "momenta", "rule", "slopes", "table"], order
