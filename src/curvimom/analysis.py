"""Expectation values, hermiticity defects and the hydrogen identities.

An expectation <p> is a product of one-coordinate quadratures.  Its
imaginary part is the hermiticity defect; for the canonical operator the
defect reduces to the surface term -(hbar/2) [w |psi|^2] at the domain
ends, while the naive operator picks up the bulk term hbar <g> on top.
The hydrogen checks close the loop against closed forms: <1/r^2>, <1/r^3>
and the circular-orbit force balance hbar^2 L(L+1)/m <1/r^3> = e^2 <1/r^2>.
Every one-axis moment, <r^p> and <g> alike, is ``SeparableState.moments``: a
sum over the factor's value table, the table the expectations read.

Everything is computed, returned and checked in natural units: lengths in a0,
momenta in hbar/a0 on a linear axis and in hbar on an angular one, <r^p> in
a0^p and forces in e^2/a0^2.  No function here takes physical constants; the
command line applies the units to the numbers it prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import ConfigurationError, DomainError, PreconditionError, UnsupportedAxisError, is_integer
from .geometry import (
    CoordinateSystem,
    make_cartesian,
    make_spherical,
    measure_factor,
    preset_systems,
)
from .operators import (
    MomentumOperator,
    canonical_momentum,
    commutator_pp_residual,
    commutator_qp_residual,
    naive_momentum,
)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, axes_product, combine_axes
from . import specfun  # the Legendre suites read the climb through the module, so a patched one shows
from .specfun import QuantumNumbers
from .states import (
    FactorFunction,
    SeparableState,
    apply_phase_twist,
    hydrogen_family,
    hydrogen_state,
    random_bound_trial,
    trial_family,
)

__all__ = [
    "ExpectationReport",
    "ForceBalanceReport",
    "ScanRow",
    "SuiteResult",
    "expectation",
    "expectations",
    "reality_tolerance",
    "require_normalised",
    "drift_expectation",
    "ci_uniqueness_demo",
    "inv_r2_closed_form",
    "inv_r3_closed_form",
    "radial_moment",
    "force_balance",
    "naive_ehrenfest_residual",
    "p_theta_spectrum_scan",
    "cartesian_reality_check",
    "run_check_suites",
]

# absolute floor of the reality contract, in natural momentum units
_REALITY_FLOOR = 1e-9
# the largest |<psi|psi> - 1| a state may show at the orders in use
_NORM_TOL = 1e-10
# the largest power radial_moment accepts, from measured accuracy (see its docstring)
_MAX_RADIAL_POWER = 20
# the L range p_theta_spectrum_scan and the command's --lmax accept (n = L + 1 <= 11)
LMAX_RANGE = (0, 10)
# the n range the hydrogen-table command's --nmax accepts
NMAX_RANGE = (1, 6)
# trial states per system in the reality scan
_REALITY_TRIALS = 50
# the hydrogen levels the suites check: every (n, L, M) with n <= 4
_LEVELS = [QuantumNumbers(n, L, M) for n in range(1, 5) for L in range(n) for M in range(-L, L + 1)]


@dataclass(frozen=True)
class ExpectationReport:
    """Expectation values with their reality diagnostics, in natural momentum units: Python
    numbers from ``expectation``, and from ``expectations`` (k,) arrays, member i in entry i.
    Reports are equal field by field by ``np.array_equal``; a family's, of arrays, is unhashable."""

    value: complex | np.ndarray
    boundary_term: float | np.ndarray
    quadrature_error: float | np.ndarray

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and all(map(np.array_equal, vars(self).values(), vars(other).values()))

    @property
    def hermiticity_defect(self) -> float | np.ndarray:
        """Im <p>: zero for a hermitian operator on an admissible state."""
        return self.value.imag


@dataclass(frozen=True)
class ForceBalanceReport:
    """Centrifugal-vs-Coulomb balance on one hydrogen level, or (k,) arrays over levels: the moments <1/r^2>
    and <1/r^3> in a0^-2 and a0^-3, the forces and the residual in e^2/a0^2."""

    n: int
    L: int
    inv_r2_quad: float
    inv_r2_closed: float
    inv_r3_quad: float
    inv_r3_closed: float
    centrifugal: float
    residual: float
    relative_residual: float


@dataclass(frozen=True)
class ScanRow:
    """One <p_theta> entry of the spectrum scan, in units of hbar."""

    L: int
    M: int
    value: complex
    quadrature_error: float


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one check suite; worst is max |residual| / tolerance."""

    name: str
    passed: bool
    checks: int
    failures: int
    worst: float


def _checked(state: SeparableState, lone: bool = False) -> SeparableState:
    if lone and state.is_family:
        raise ConfigurationError("one state is needed, not a family: expectations reports on every member")
    if not state.normalized:
        raise PreconditionError("expectation values require a normalized state")
    return state


def _columns(op: MomentumOperator, state: SeparableState, config: QuadratureConfig) -> tuple[np.ndarray, ...]:
    # every member's value, surface term and estimate as (k,) arrays: each axis's norms and the
    # operator axis's momentum sums, read from the factors' memos, on each factor's own rule
    values, norms = state.tabulate(config)
    factor, table = state.factors[op.axis], values[op.axis]
    rule, moments = factor.rule(config), factor.momentum_sums(config, op.drift)
    value, qerr = combine_axes(norms[: op.axis] + (moments,) + norms[op.axis + 1 :])
    spec, zero_ends = factor.spec, measure_factor(factor.spec).zero_ends

    def surface(end: float, node: int):
        # w |f|^2 at one end of the operator's axis: 0, or one value per member
        if end in zero_ends or spec.topology == "compact-periodic":  # w vanishes, or both ends are one point
            return 0.0
        if factor.peak is not None and not math.isfinite(end):  # a Gaussian's limit, where its few nodes end early
            return 0.0
        # at an infinite end, the outermost full-order node (nodes ascend); bound states have long underflowed there
        q, ends = (end, factor.evaluate(end)) if math.isfinite(end) else (rule.nodes[..., node], table[..., node])
        return spec.weight.value(q) * np.square(np.abs(ends))

    # the surface term -(hbar/2) [w |f|^2], times the other axes' norms
    other = axes_product(norms[: op.axis] + norms[op.axis + 1 :]).real
    boundary = -0.5 * (surface(spec.upper, rule.full - 1) - surface(spec.lower, 0)) * other
    return value, boundary, qerr


def expectations(
    op: MomentumOperator, state: SeparableState, config: QuadratureConfig = DEFAULT_CONFIG
) -> ExpectationReport:
    """<psi| p |psi> with reality diagnostics on every member of ``state`` at once: one report whose
    value, boundary term and quadrature error are (k,) arrays, in natural units, each member on its
    factors' own rules; PreconditionError unless normalized."""
    return ExpectationReport(*_columns(op, _checked(state), config))


def expectation(
    op: MomentumOperator, state: SeparableState, config: QuadratureConfig = DEFAULT_CONFIG
) -> ExpectationReport:
    """<psi| p |psi> by separable quadrature, with reality diagnostics: the one
    entry ``expectations`` forms on a lone state, as a Python complex and floats.

    Raises:
        ConfigurationError: if the state is a family.
        PreconditionError: if the state is not normalized.
    """
    return ExpectationReport(*(column.item() for column in _columns(op, _checked(state, lone=True), config)))


def reality_tolerance(report: ExpectationReport) -> float | np.ndarray:
    """Reality-contract bound in natural momentum units, elementwise on a family's report:
    max(10 x quadrature error, 1e-9)."""
    return np.maximum(10.0 * report.quadrature_error, _REALITY_FLOOR)


def require_normalised(state: SeparableState, config: QuadratureConfig, label: str) -> None:
    """DomainError unless every member's |<psi|psi> - 1|, from ``state.norms`` at the
    orders in use, is within the normalization suite's tolerance 1e-10."""
    misses = np.abs(state.norms(config) - 1.0)
    if not (misses <= _NORM_TOL).all():  # a NaN norm is refused too
        raise DomainError(f"{label} is not normalised to {_NORM_TOL:g} at these orders: "
                          f"|<psi|psi> - 1| = {np.max(misses):.2e}")


def drift_expectation(
    state: SeparableState, axis: int, config: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """<g_axis>: the bulk piece of the naive operator's defect law, in natural units.

    The moment is taken on the axis alone, without the other axes' norms (1 to about 1e-15 on a
    normalized state); a family raises ConfigurationError, an unnormalized state PreconditionError."""
    return _checked(state, lone=True).moments(axis, measure_factor(state.system.coords[axis]).drift, config)[0]


def ci_uniqueness_demo(
    system: CoordinateSystem,
    axis: int,
    seed_a: int,
    seed_b: int,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> tuple[float, float]:
    """Recovered additive constants for two independent trial states.

    The constant that would force <p_axis> = 0 in the momentum ansatz is
    c = -<p_canonical>; its magnitude, in 1/a0, is returned for each seed.  For bound
    trial states on a linear axis both magnitudes vanish (to quadrature
    accuracy), which is the uniqueness argument: no state-independent
    nonzero constant survives.

    Raises:
        UnsupportedAxisError: if the axis is not a linear coordinate.
    """
    spec = system.coords[axis]
    if spec.kind != "linear":
        raise UnsupportedAxisError(
            f"the additive-constant demo needs a linear axis, {spec.name!r} is {spec.kind}"
        )
    family = trial_family(system, (seed_a, seed_b))
    return tuple(np.abs(expectations(canonical_momentum(system, axis), family, config).value).tolist())


def inv_r2_closed_form(qn: QuantumNumbers) -> float:
    """<1/r^2> = 1 / (n^3 (L + 1/2)), in a0^-2; elementwise on levels whose n and L are arrays."""
    return 1.0 / (qn.n**3 * (qn.L + 0.5))


def inv_r3_closed_form(qn: QuantumNumbers) -> float:
    """<1/r^3> = 1 / (n^3 L (L + 1/2) (L + 1)), in a0^-3; needs L >= 1, elementwise as ``inv_r2_closed_form``.

    Raises:
        DomainError: for L = 0, where the moment diverges.
    """
    if np.any(qn.L < 1):
        raise DomainError("<1/r^3> diverges for L = 0")
    return 1.0 / (qn.n**3 * qn.L * (qn.L + 0.5) * (qn.L + 1))


def radial_moment(qn: QuantumNumbers, power: int, config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """<r^power> on the hydrogen level (n, L) by half-line quadrature, in a0^power.

    Raises:
        DomainError: for a power that is not an integer, below -(2L + 2), where
            the moment diverges at r = 0, or above 20, the largest power within
            1e-9 of the exact moment on every level with n <= 6 at the default orders.
    """
    if not is_integer(power) or not -(2 * qn.L + 2) <= power <= _MAX_RADIAL_POWER:
        raise DomainError(
            f"<r^{power}> on L = {qn.L} needs an integer power in [{-(2 * qn.L + 2)}, {_MAX_RADIAL_POWER}]"
        )
    return hydrogen_state(qn).moments(0, lambda r: r ** float(power), config)[0]


def force_balance(qn: QuantumNumbers, config: QuadratureConfig = DEFAULT_CONFIG) -> ForceBalanceReport:
    """Circular-orbit balance hbar^2 L(L+1)/m <1/r^3> = e^2 <1/r^2>.

    The moments come from quadrature; the closed forms ride along for
    comparison.  Needs L >= 1 (no centrifugal barrier otherwise).
    """
    if qn.L < 1:
        raise DomainError("force balance needs L >= 1")
    state = hydrogen_state(qn)
    inv_r2, inv_r3 = (state.moments(0, lambda r: r**p, config)[0] for p in (-2.0, -3.0))
    return _force_balance(qn, inv_r2, inv_r3)


def _force_balance(qn: QuantumNumbers, inv_r2_q: float, inv_r3_q: float) -> ForceBalanceReport:
    # force_balance on level qn from its quadrature <1/r^2> and <1/r^3>, with <L^2> = L(L+1)
    # hbar^2, elementwise on levels of arrays; both forces are in e^2 / a0^2, which is hbar^2 / (m a0^3)
    centrifugal = qn.L * (qn.L + 1.0) * inv_r3_q
    residual = centrifugal - inv_r2_q
    return ForceBalanceReport(
        n=qn.n,
        L=qn.L,
        inv_r2_quad=inv_r2_q,
        inv_r2_closed=inv_r2_closed_form(qn),
        inv_r3_quad=inv_r3_q,
        inv_r3_closed=inv_r3_closed_form(qn),
        centrifugal=centrifugal,
        residual=residual,
        relative_residual=residual / abs(inv_r2_q),
    )


def naive_ehrenfest_residual(qn: QuantumNumbers, config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Unbalanced radial force <-e^2/r^2> left by the naive operator, in e^2/a0^2.

    Strictly negative: with the drift dropped, nothing cancels the Coulomb
    pull on a stationary state.
    """
    return -radial_moment(qn, -2, config=config)


def _hydrogen_levels(levels: list[tuple[int, int, int]]) -> tuple[SimpleNamespace, SeparableState]:
    # the levels (n, L, M) as (k,) int arrays n, L and M, and their family
    n, L, M = np.array(levels).T
    return SimpleNamespace(n=n, L=L, M=M), hydrogen_family([QuantumNumbers(*level) for level in levels])


@lru_cache(maxsize=LMAX_RANGE[1] + 1)
def _scan_levels(l_max: int) -> tuple[SimpleNamespace, SeparableState]:
    # the scan's levels n = L + 1, L <= l_max, and their family, built once per accepted l_max
    return _hydrogen_levels([(L + 1, L, M) for L in range(l_max + 1) for M in range(-L, L + 1)])


@lru_cache(maxsize=NMAX_RANGE[1])
def _table_levels(n_max: int) -> tuple[SimpleNamespace, SeparableState]:
    # hydrogen-table's levels n <= n_max, every L, M = 0, and their family, built once per accepted n_max
    return _hydrogen_levels([(n, L, 0) for n in range(1, n_max + 1) for L in range(n)])


def _scan_columns(l_max: int, config: QuadratureConfig) -> tuple[SimpleNamespace, ExpectationReport]:
    # the scan's levels and its one report of (k,) arrays, which p_theta_spectrum_scan and the command read
    if not is_integer(l_max) or not LMAX_RANGE[0] <= l_max <= LMAX_RANGE[1]:
        raise DomainError(f"l_max must be an integer in {list(LMAX_RANGE)}, got {l_max!r}")
    levels, family = _scan_levels(l_max)
    require_normalised(family, config, f"a state of the L <= {l_max} scan")
    return levels, expectations(canonical_momentum(make_spherical(), 1), family, config)


def p_theta_spectrum_scan(l_max: int = 6, config: QuadratureConfig = DEFAULT_CONFIG) -> list[ScanRow]:
    """<p_theta> on the circular-ish levels (n = L+1) for L <= l_max, in units of hbar.

    A hermitian p_theta must average to zero on every real-sector
    eigenstate, and only on normalised ones; the scan exposes any residual.

    Raises:
        DomainError: if l_max is outside [0, 10], or a member's norm misses 1 at these orders.
    """
    levels, rep = _scan_columns(l_max, config)
    return list(map(ScanRow, levels.L.tolist(), levels.M.tolist(), rep.value.tolist(), rep.quadrature_error.tolist()))


def cartesian_reality_check(
    seed: int,
    wavenumber: float = 0.0,
    config: QuadratureConfig = DEFAULT_CONFIG,
) -> ExpectationReport:
    """<p_x> on a random Cartesian trial state, optionally phase-twisted, in hbar/a0.

    With a twist e^(i k x), k in 1/a0, the expectation moves to hbar k exactly
    while the defect stays at the boundary-term level: the zero-drift limit of
    the ansatz reproduces the textbook operator.
    """
    trial = random_bound_trial(make_cartesian(), seed)
    if wavenumber != 0.0:
        trial = apply_phase_twist(trial, 0, wavenumber)
    return expectation(canonical_momentum(make_cartesian(), 0), trial, config)


class _Tally:
    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.failures = 0
        self.worst = 0.0

    def add(self, residual, tol) -> None:
        # one check per element; a NaN ratio fails and makes worst NaN
        ratio = np.abs(residual) / tol
        self.checks += ratio.size
        self.failures += int(np.count_nonzero(~(ratio <= 1.0)))
        self.worst = float(np.max(ratio, initial=self.worst))

    def result(self) -> SuiteResult:
        return SuiteResult(self.name, self.failures == 0, self.checks, self.failures, self.worst)


def _suite_parity() -> SuiteResult:
    # P_L^M(x) = (-1)^(L+M) P_L^M(-x) on every degree of one climb per order on x and -x
    t = _Tally("legendre-parity")
    x = np.linspace(-1.0, 1.0, 101)
    for M in range(11):
        rows = specfun._legendre_climb(10, M, np.stack([x, -x]))[M:]
        lhs, rhs = rows[:, 0], (-1) ** np.arange(2 * M, M + 11)[:, None] * rows[:, 1]
        t.add(np.abs(lhs - rhs).max(-1), 1e-12 * np.maximum(np.abs(lhs).max(-1), 1e-30))
    return t.result()


def _suite_recurrence() -> SuiteResult:
    # order-raising identity (x^2 - 1) dP_L^M/dx = sqrt(1 - x^2) P_L^{M+1} + M x P_L^M,
    # with P_L^{L+1} = 0; P_L^{M+1} comes from the next order's climb, with another seed
    # than the derivative's, so a wrong phase or seed shows
    t = _Tally("legendre-recurrence")
    x = np.linspace(-0.995, 0.995, 101)
    climbs = {M: specfun._legendre_climb(10, M, x) for M in range(-10, 11)}
    for M, rows in climbs.items():
        m = abs(M)
        lhs = (x * x - 1.0) * specfun._degree_lowering(rows, M, x)[m:]
        raised, term = np.sqrt(1.0 - x * x) * climbs.get(M + 1, np.zeros_like(rows))[m:], M * x * rows[m:]
        scale = np.maximum(np.maximum(np.abs(raised).max(-1), np.abs(term).max(-1)), 1e-30)
        t.add(np.abs(lhs - (raised + term)).max(-1), 1e-10 * scale)
    return t.result()


def _suite_fd_derivative() -> SuiteResult:
    # the derivative against a central difference, every degree from one climb per order on x +- h and x
    t = _Tally("legendre-fd-derivative")
    x = np.linspace(-0.99, 0.99, 51)
    h = float(np.finfo(float).eps) ** (1.0 / 3.0)
    for M in range(-8, 9):
        rows, m = specfun._legendre_climb(8, M, np.stack([x + h, x - h, x])), abs(M)
        fd, dv = (rows[m:, 0] - rows[m:, 1]) / (2.0 * h), specfun._degree_lowering(rows[:, 2], M, x)[m:]
        t.add(np.abs(fd - dv).max(-1), 1e-6 * np.maximum(np.abs(dv).max(-1), 1.0))
    return t.result()


def _suite_normalization(cfg: QuadratureConfig) -> SuiteResult:
    t = _Tally("normalization")
    families = [hydrogen_family(_LEVELS)]
    families += [trial_family(system, range(900, 903)) for system in preset_systems().values()]
    for family in families:
        t.add(family.norms(cfg) - 1.0, _NORM_TOL)
    return t.result()


# commutator sample points per topology, from a uniform draw u and the state's scale s
_SAMPLE = {
    "half-line": lambda u, s: s * (0.2 + 2.6 * u),
    "line": lambda u, s: s * 4.0 * (u - 0.5),
    "compact-periodic": lambda u, s: 2.0 * math.pi * (0.02 + 0.96 * u),
    "compact-nonperiodic": lambda u, s: 0.15 + (math.pi - 0.3) * u,
}


def _on_points(factor: FactorFunction, q: np.ndarray) -> FactorFunction:
    # the factor with its values and slopes on the sample array q computed once: called on that
    # same array object it returns them, called on anything else it evaluates as before
    values, slopes = factor.evaluate(q), factor.derivative(q)
    return factor.derived(lambda x: values if x is q else factor.evaluate(x),
                          lambda x: slopes if x is q else factor.derivative(x))


def _suite_commutators(seed: int) -> SuiteResult:
    t = _Tally("commutators")
    rng = np.random.default_rng(seed + 170)
    for k, system in enumerate(preset_systems().values()):
        first = 3000 + 100 * seed + 5 * k
        family = trial_family(system, range(first, first + 5))
        # (5, 5) points, a row per member: the stream of five (5, dim) draws, at each factor's scales
        draws = rng.random((5, 5, system.dim))
        point = [_SAMPLE[f.spec.topology](draws[..., a], np.reshape(f.scale, (-1, 1)))
                 for a, f in enumerate(family.factors)]
        # the family as one pointwise state, each factor tabulated once on its axis's points
        state = replace(family, factors=tuple(_on_points(f, q) for f, q in zip(family.factors, point)))
        psi_mag = np.maximum(np.abs(state.evaluate(point)), 1e-30)
        for i in range(system.dim):
            for j in range(system.dim):
                t.add(commutator_qp_residual(system, i, j, state, point), 1e-7 * psi_mag)
        for i in range(system.dim):
            for j in range(i + 1, system.dim):
                t.add(commutator_pp_residual(system, i, j, state, point), 1e-7 * psi_mag)
    return t.result()


def _suite_reality(cfg: QuadratureConfig, seed: int) -> SuiteResult:
    t = _Tally("reality-scan")
    system = make_spherical()
    ops = [canonical_momentum(system, axis) for axis in range(3)]
    ops += [naive_momentum(system, axis) for axis in (0, 1)]
    family = hydrogen_family(_LEVELS)
    rep_r, rep_th, rep_ph, rep_naive, rep_naive_th = (expectations(op, family, cfg) for op in ops)
    inv_r = family.moments(0, lambda r: r**-1.0, cfg)
    g_th = family.moments(1, measure_factor(system.coords[1]).drift, cfg)

    # six checks per level, one column each: <p_r> = <p_theta> = 0, <p_phi> = M hbar, the naive radial
    # defect law Im<p'_r> = hbar <1/r> = hbar/(n^2 a0) on both sides, and the naive polar one
    # Im<p'_theta> = hbar <cot(theta)/2>
    n, M = np.array([(qn.n, qn.M) for qn in _LEVELS]).T
    closed, defect, floor = 1.0 / (n * n), rep_naive.hermiticity_defect, np.full(n.shape, _REALITY_FLOOR)
    residuals = [np.abs(rep_r.value), np.abs(rep_th.value), np.abs(rep_ph.value - M),
                 defect - inv_r, defect - closed, rep_naive_th.hermiticity_defect - g_th]
    tols = [floor, floor, 1e-10 * np.maximum(1, np.abs(M)), 1e-9 * closed, 1e-8 * closed, floor]
    t.add(np.stack(residuals, axis=1), np.stack(tols, axis=1))

    seeds = range(7000 + 1000 * seed, 7000 + 1000 * seed + _REALITY_TRIALS)
    for sys_obj in preset_systems().values():
        family = trial_family(sys_obj, seeds)
        for axis in range(sys_obj.dim):
            rep = expectations(canonical_momentum(sys_obj, axis), family, cfg)
            # the canonical defect and its distance from the surface term -(hbar/2) [w |psi|^2], 0 at
            # every end of these bound states (a zero weight, an underflowed state or a periodic
            # axis): this guards the term's code path, not its magnitude
            defect = rep.hermiticity_defect
            t.add(np.maximum(np.abs(defect), np.abs(defect - rep.boundary_term)), reality_tolerance(rep))
    return t.result()


def _suite_ci_uniqueness(cfg: QuadratureConfig, seed: int) -> SuiteResult:
    t = _Tally("ci-uniqueness")
    for system in (make_spherical(), make_cartesian()):
        # the seed pairs of ci_uniqueness_demo, as one family per system
        family = trial_family(system, range(500 + 20 * seed, 520 + 20 * seed))
        t.add(np.abs(expectations(canonical_momentum(system, 0), family, cfg).value), 1e-8)
    return t.result()


def run_check_suites(config: QuadratureConfig = DEFAULT_CONFIG, seed: int = 0) -> list[SuiteResult]:
    """Run every invariant suite in units of a0 and hbar, so the results hold in every unit
    system; quadrature-sensitive ones use the acceptance tolerances, so degraded orders fail honestly."""
    return [
        _suite_parity(),
        _suite_recurrence(),
        _suite_fd_derivative(),
        _suite_normalization(config),
        _suite_commutators(seed),
        _suite_reality(config, seed),
        _suite_ci_uniqueness(config, seed),
    ]
