"""Planted defects: each row breaks one piece of the pipeline and names the
suites that ``run_check_suites`` must then fail, so every check is shown to
catch the fault it guards.  A new class of defect adds a row.
"""

import dataclasses
import json

import numpy as np
import pytest

from cli_runner import invoke
from curvimom import analysis, geometry, operators, specfun, states
from curvimom.analysis import run_check_suites


@pytest.fixture(autouse=True)
def fresh_factors():
    # hydrogen factors, their tables and momentum sums, their families' stacks and the
    # scan's and the table's levels are cached per process: a row must build its own, and leave none behind
    caches = (states._hydrogen_radial, states._theta_factor, states._phi_factor, states._stacked,
              analysis._scan_levels, analysis._table_levels)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def _drop_condon_shortley(monkeypatch):
    climb = specfun._legendre_climb

    def no_phase(L, M, xi):
        return (-1) ** abs(M) * climb(L, M, xi)

    monkeypatch.setattr(specfun, "_legendre_climb", no_phase)


def _double_drift(monkeypatch):
    drift = geometry.MeasureFactor.drift
    monkeypatch.setattr(geometry.MeasureFactor, "drift", lambda self, q: 2.0 * drift(self, q))


def _half_order_is_full_order(monkeypatch):
    # every (full, half) sum is formed in states: the norms, the momentum sums and the overlaps
    contract_rows = states.contract_rows

    def full_twice(rule, table):
        # each row's (k, 2) sums with the full-order sum in the half-order column too
        return contract_rows(rule, table)[:, [0, 0]]

    monkeypatch.setattr(states, "contract_rows", full_twice)


def _scale_radial_norm(monkeypatch):
    radial = states._hydrogen_radial

    def scaled(n, L):
        f = radial(n, L)
        return f.derived(lambda r: f.evaluate(r) * (1 + 1e-6), lambda r: f.derivative(r) * (1 + 1e-6))

    monkeypatch.setattr(states, "_hydrogen_radial", scaled)


def _scale_radial_derivative(monkeypatch):
    # the values stay, so the moments that read only them stay too
    radial = states._hydrogen_radial

    def scaled(n, L):
        f = radial(n, L)
        return f.derived(f.evaluate, lambda r: f.derivative(r) * (1 + 1e-6))

    monkeypatch.setattr(states, "_hydrogen_radial", scaled)


def _drop_trial_norm(monkeypatch):
    # each builder takes its profile's parameters, then 1 / norm, then its coordinate and map scale by keyword
    for name, params in (("_poly_gaussian", 5), ("_sine_sum", 1), ("_fourier_sum", 1)):
        builder = getattr(states, name)
        monkeypatch.setattr(states, name, lambda *args, b=builder, k=params, **kwargs: b(*args[:k], **kwargs))


def _break_product_rule(monkeypatch):
    def scaled_state(state, axis):
        f = state.factors[axis]
        factors = list(state.factors)
        factors[axis] = f.derived(lambda q: q * f.evaluate(q), lambda q: q * f.derivative(q))
        return dataclasses.replace(state, factors=tuple(factors), normalized=False)

    monkeypatch.setattr(operators, "coordinate_scaled_state", scaled_state)


def _flip_phi_derivative(monkeypatch):
    phi = states._phi_factor

    def flipped(M):
        f = phi(M)
        return f.derived(f.evaluate, lambda q: -f.derivative(q))

    monkeypatch.setattr(states, "_phi_factor", flipped)


def _zero_quad_error(monkeypatch):
    combine = analysis.combine_axes

    def no_estimate(pairs):
        value, estimate = combine(pairs)
        return value, np.zeros_like(estimate)

    monkeypatch.setattr(analysis, "combine_axes", no_estimate)


@dataclasses.dataclass(frozen=True)
class _ComplementedSurface(analysis.ExpectationReport):
    def __post_init__(self):
        object.__setattr__(self, "boundary_term", 1.0 - self.boundary_term)


def _complement_boundary_term(monkeypatch):
    monkeypatch.setattr(analysis, "ExpectationReport", _ComplementedSurface)


DEFECTS = {
    "condon-shortley-phase-dropped": (_drop_condon_shortley, {"legendre-recurrence"}),
    "drift-doubled": (_double_drift, {"reality-scan", "ci-uniqueness"}),
    "half-order-sums-equal-full": (_half_order_is_full_order, {"reality-scan"}),
    "radial-norm-off-by-1e-6": (_scale_radial_norm, {"normalization", "reality-scan"}),
    "radial-derivative-off-by-1e-6": (_scale_radial_derivative, {"reality-scan"}),
    "trial-norm-dropped": (_drop_trial_norm, {"normalization"}),
    "product-rule-broken": (_break_product_rule, {"commutators"}),
    "phi-derivative-sign-flipped": (_flip_phi_derivative, {"reality-scan"}),
    "quad-error-forced-to-zero": (_zero_quad_error, {"reality-scan"}),
    "boundary-term-complemented": (_complement_boundary_term, {"reality-scan"}),
}


# the checks each suite makes, planted or not
CHECKS = {"legendre-parity": 66, "legendre-recurrence": 121, "legendre-fd-derivative": 81,
          "normalization": 42, "commutators": 1025, "reality-scan": 730, "ci-uniqueness": 40}


def test_unplanted_suites_pass():
    assert all(result.passed for result in run_check_suites())


@pytest.mark.parametrize("name", list(DEFECTS))
def test_planted_defect_fails_its_suites(monkeypatch, name):
    plant, suites = DEFECTS[name]
    plant(monkeypatch)
    results = run_check_suites()
    assert {result.name for result in results if not result.passed} == suites
    for result in results:
        assert result.checks == CHECKS[result.name], result
        assert (not result.worst <= 1.0) == (result.name in suites), result


@pytest.mark.parametrize("name", list(DEFECTS))
def test_planted_defect_shows_after_warm_runs(monkeypatch, name):
    # a warm check and scan fill every cache a plant could hide behind (factor tables, momentum
    # sums, stacks, scan levels); each planted row must still fail its suites
    assert invoke("check").exit_code == 0
    assert invoke("p-theta-scan", "--lmax", "10").exit_code == 0
    plant, suites = DEFECTS[name]
    plant(monkeypatch)
    assert {result.name for result in run_check_suites() if not result.passed} == suites


def test_complemented_boundary_term_fails_check(monkeypatch):
    # the surface-term identity is read by check itself, not only by a unit test
    _complement_boundary_term(monkeypatch)
    result = invoke("check", "--format", "json")
    assert result.exit_code == 1, result.output
    rows = [row for row in map(json.loads, result.stdout.splitlines()) if not row["passed"]]
    assert [row["suite"] for row in rows] == ["reality-scan"]
