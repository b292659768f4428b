"""Operators: pointwise action, drift shift, commutators, L^2 shortcut."""

import cmath
import dataclasses
import inspect
import math

import numpy as np
import pytest

import curvimom
from curvimom.errors import ConfigurationError, SingularityError, UnsupportedStateError
from curvimom.geometry import make_spherical, preset_systems
from curvimom.operators import (
    MomentumOperator,
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


def as_batch(points):
    # the same points as one batch: one array per coordinate
    return [np.array(column) for column in zip(*points)]


def assert_batch_matches(batch, singles, scales):
    assert np.shape(batch) == (len(singles),)
    for got, single, scale in zip(batch, singles, scales):
        assert abs(got - single) <= 1e-14 * scale


def test_drift_shift_between_canonical_and_naive():
    # canonical minus naive acting on psi is exactly -i hbar g_i psi
    rng = np.random.default_rng(7)
    for system in preset_systems().values():
        state = random_bound_trial(system, 21)
        points = []
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
            points.append(point)
        batch = as_batch(points)
        for axis in range(system.dim):
            can = canonical_momentum(system, axis)
            nai = naive_momentum(system, axis)
            diffs = []
            for point in points:
                diff = apply(can, state, point) - apply(nai, state, point)
                g = can.drift(point[axis])
                expected = -1j * ATOMIC.hbar * g * state.evaluate(point)
                scale = max(abs(expected), 1e-9)
                assert abs(diff - expected) <= 1e-12 * scale, (system.name, axis)
                diffs.append(diff)
            batch_diff = apply(can, state, batch) - apply(nai, state, batch)
            assert_batch_matches(batch_diff, diffs, np.maximum(np.abs(diffs), 1e-9))


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
        points = sample_points(system, rng, 4)
        # residuals are rounding noise: compare the batch at |psi|'s scale
        scales = [abs(state.evaluate(point)) for point in points]
        assert_batch_matches(state.evaluate(as_batch(points)), [state.evaluate(p) for p in points], scales)
        for i in range(system.dim):
            for j in range(system.dim):
                singles = [commutator_qp_residual(system, i, j, state, point) for point in points]
                for res, scale in zip(singles, scales):
                    assert abs(res) <= 1e-7 * max(scale, 1e-6), (system.name, i, j)
                batch = commutator_qp_residual(system, i, j, state, as_batch(points))
                assert_batch_matches(batch, singles, scales)


def test_momentum_momentum_commutator():
    rng = np.random.default_rng(23)
    for system in preset_systems().values():
        state = random_bound_trial(system, 37)
        points = sample_points(system, rng, 4)
        scales = [abs(state.evaluate(point)) for point in points]
        for i in range(system.dim):
            for point in points:
                res = commutator_pp_residual(system, i, i, state, point)
                assert res == 0.0, (system.name, i)  # identical ops, exact zero
            assert np.array_equal(commutator_pp_residual(system, i, i, state, as_batch(points)), np.zeros(4))
            for j in range(i + 1, system.dim):
                singles = [commutator_pp_residual(system, i, j, state, point) for point in points]
                for res, scale in zip(singles, scales):
                    assert abs(res) <= 1e-7 * max(scale, 1e-6), (system.name, i, j)
                batch = commutator_pp_residual(system, i, j, state, as_batch(points))
                assert_batch_matches(batch, singles, scales)


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
    # one weight zero in a batch raises for the whole call
    batch = (np.array([1.0, 0.0, 2.0]), np.array([1.0, 1.2, 0.9]), np.array([1.0, 1.0, 3.0]))
    with pytest.raises(SingularityError):
        apply(canonical_momentum(sph, 0), state, batch)
    # theta = 0: the drift raises before the factor's derivative can refuse cos(theta) = 1
    with pytest.raises(SingularityError):
        apply(canonical_momentum(sph, 1), state, (batch[2], np.array([0.5, 0.0, 1.0]), batch[2]))
    # theta = pi: sin(pi) is 1.2e-16 in floats, but the weight's exact zero
    # still raises SingularityError, alone and in a batch
    with pytest.raises(SingularityError):
        apply(canonical_momentum(sph, 1), state, (1.0, math.pi, 1.0))
    with pytest.raises(SingularityError):
        apply(canonical_momentum(sph, 1), state, (batch[2], np.array([0.5, math.pi, 1.0]), batch[2]))
    values = apply(naive_momentum(sph, 0), state, batch)
    assert values.shape == (3,) and np.all(np.isfinite(values))


def test_only_the_unit_definitions_take_physical_constants():
    # the library works in natural units and the CLI applies physical ones, so
    # no public callable but the definitions of the units takes constants
    modules = [curvimom] + [vars(curvimom)[name] for name in
                            ("analysis", "geometry", "operators", "quadrature", "specfun", "states")]
    callables = {}
    for module in modules:
        for name, obj in vars(module).items():
            if not name.startswith("_") and callable(obj):
                callables[name] = obj
                if inspect.isclass(obj):
                    callables.update({f"{name}.{attr}": fn for attr, fn in vars(obj).items()
                                      if not attr.startswith("_") and inspect.isfunction(fn)})
    taking = set()
    for name, obj in callables.items():
        try:
            if "constants" in inspect.signature(obj).parameters:
                taking.add(name)
        except (TypeError, ValueError):  # a builtin without a signature
            pass
    assert "canonical_momentum" in callables and "momentum_unit" in taking
    assert taking <= {"momentum_unit", "load_constants", "PhysicalConstants"}, taking
    assert "unit" not in {field.name for field in dataclasses.fields(MomentumOperator)}


def test_every_public_name_resolves_and_is_exported_by_its_module():
    # each module's __all__ names what it defines, and the package re-exports only those
    # names and the error types, so a deleted name cannot linger in either list
    exported = {}
    for name in ("analysis", "geometry", "operators", "quadrature", "specfun", "states"):
        module = vars(curvimom)[name]
        for entry in module.__all__:
            assert hasattr(module, entry), (name, entry)
            exported[entry] = getattr(module, entry)
    exported.update((name, obj) for name, obj in vars(curvimom.errors).items() if inspect.isclass(obj))
    stray = [name for name, obj in vars(curvimom).items()
             if not name.startswith("_") and not inspect.ismodule(obj) and exported.get(name) is not obj]
    assert stray == []


def test_apply_refuses_a_point_of_the_wrong_length():
    # zip would drop the missing coordinate and return a number
    state = hydrogen_state(QuantumNumbers(2, 1, 0))
    op = canonical_momentum(make_spherical(), 0)
    for point in ((1.0, 0.5), (1.0, 0.5, 0.3, 0.2)):
        with pytest.raises(ConfigurationError, match=f"point has {len(point)} components"):
            apply(op, state, point)
