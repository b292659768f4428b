"""Expectation values, hermiticity defects and the hydrogen identities.

An expectation <p> is a product of one-coordinate quadratures.  Its
imaginary part is the hermiticity defect; for the canonical operator the
defect reduces to the surface term -(hbar/2) [w |psi|^2] at the domain
ends, while the naive operator picks up the bulk term hbar <g> on top.
The hydrogen checks close the loop against closed forms: <1/r^2>, <1/r^3>
and the circular-orbit force balance hbar^2 L(L+1)/m <1/r^3> = e^2 <1/r^2>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, UnsupportedAxisError
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
    l_squared_expectation,
    naive_momentum,
)
from .quadrature import QuadratureConfig, combine_axes, contract, contract_rows, coordinate_integral
from .specfun import (
    QuantumNumbers,
    assoc_legendre,
    assoc_legendre_deriv,
    legendre_parity,
)
from .states import (
    ATOMIC,
    PhysicalConstants,
    SeparableState,
    StateFamily,
    apply_phase_twist,
    hydrogen_state,
    random_bound_trial,
    trial_family,
)

__all__ = [
    "ExpectationReport",
    "ForceBalanceReport",
    "ScanRow",
    "SuiteResult",
    "momentum_unit",
    "expectation",
    "expectations",
    "reality_tolerance",
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
_DEFAULT_CONFIG = QuadratureConfig()
# members per reality-scan trial family: a family holds a (k, n) table per axis,
# and 25 members keep the Cartesian one (three line axes) under a megabyte
_FAMILY_SIZE = 25


@dataclass(frozen=True)
class ExpectationReport:
    """One expectation value with its reality diagnostics."""

    value: complex
    boundary_term: float
    quadrature_error: float

    @property
    def hermiticity_defect(self) -> float:
        """Im <p>: zero for a hermitian operator on an admissible state."""
        return self.value.imag


@dataclass(frozen=True)
class ForceBalanceReport:
    """Centrifugal-vs-Coulomb balance on one hydrogen level."""

    n: int
    L: int
    inv_r2_quad: float
    inv_r2_closed: float
    inv_r3_quad: float
    inv_r3_closed: float
    centrifugal: float
    coulomb: float
    residual: float
    relative_residual: float


@dataclass(frozen=True)
class ScanRow:
    """One <p_theta> entry of the spectrum scan."""

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


def momentum_unit(kind: str, constants: PhysicalConstants = ATOMIC) -> float:
    """Natural momentum scale: hbar/a0 on linear axes, hbar on angular."""
    if kind == "linear":
        return constants.hbar / constants.a0
    return constants.hbar


def _momentum_values(op: MomentumOperator, factor, nodes: np.ndarray, vals: np.ndarray) -> np.ndarray:
    # conj(f) (p f) on an axis's nodes; only the derivative is evaluated here
    return np.conj(vals) * (-1j * op.hbar) * (
        np.asarray(factor.derivative(nodes)) + (op.drift(nodes) + op.constant) * vals
    )


def expectations(
    op: MomentumOperator, family: StateFamily, config: QuadratureConfig | None = None
) -> list[ExpectationReport]:
    """<psi| p |psi> with reality diagnostics on every member of ``family``:
    one table and one contraction per axis, then each member's report from
    Python scalars, at the member's own radial scale and the config's orders.

    Raises:
        PreconditionError: if a member is not normalized.
    """
    if not all([state.normalized for state in family.members]):
        raise PreconditionError("expectation values require a normalized state")
    rules, values, norms = family.tabulate(config if config is not None else _DEFAULT_CONFIG)
    rule, table, factor, k = rules[op.axis], values[op.axis], family.factors[op.axis], len(family.members)
    moments = contract_rows(rule, _momentum_values(op, factor, rule.nodes, table))
    spec = family.system.coords[op.axis]
    zero_ends = measure_factor(spec).zero_ends

    def surface(end: float, node: int) -> list[float]:
        # w |f|^2 at one end of the operator's axis, one float per member
        if end in zero_ends:  # w vanishes there exactly
            return [0.0] * k
        if math.isfinite(end):
            w, ends = [float(spec.weight.value(end))] * k, factor.evaluate(end)
        else:  # the outermost full-order node (nodes ascend); bound states have long underflowed there
            w, ends = np.reshape(spec.weight.value(rule.nodes[..., node]), -1).tolist(), table[..., node]
        return [wi * abs(v) ** 2 for wi, v in zip(w, np.reshape(ends, -1).tolist())]

    upper, lower = surface(spec.upper, rule.full - 1), surface(spec.lower, 0)
    reports = []
    for i in range(k):
        pairs = [axis_norms[i] for axis_norms in norms]
        other = math.prod(full.real for j, (full, _) in enumerate(pairs) if j != op.axis)
        pairs[op.axis] = moments[i]
        value, qerr = combine_axes(pairs)
        # the surface term -(hbar/2) [w |f|^2], times the other axes' norms
        boundary = -0.5 * op.hbar * (upper[i] - lower[i]) * other
        reports.append(ExpectationReport(value=value, boundary_term=boundary, quadrature_error=qerr))
    return reports


def expectation(
    op: MomentumOperator, state: SeparableState, config: QuadratureConfig | None = None
) -> ExpectationReport:
    """<psi| p |psi> by separable quadrature, with reality diagnostics: the
    family-of-one case of ``expectations``.

    Raises:
        PreconditionError: if the state is not normalized.
    """
    return expectations(op, StateFamily.of(state), config)[0]


def reality_tolerance(
    report: ExpectationReport, kind: str, constants: PhysicalConstants = ATOMIC
) -> float:
    """Reality-contract bound: max(10 x quadrature error, 1e-9 natural)."""
    return max(10.0 * report.quadrature_error, _REALITY_FLOOR * momentum_unit(kind, constants))


def drift_expectation(
    state: SeparableState, axis: int, config: QuadratureConfig | None = None
) -> float:
    """<g_axis>: the bulk piece of the naive operator's defect law."""
    g = measure_factor(state.system.coords[axis]).drift
    rules, values, norms = StateFamily.of(state).tabulate(config if config is not None else _DEFAULT_CONFIG)
    pairs = [pair for pair, in norms]
    pairs[axis] = contract(rules[axis], g(rules[axis].nodes) * np.abs(values[axis]) ** 2)
    return combine_axes(pairs)[0].real


def ci_uniqueness_demo(
    system: CoordinateSystem,
    axis: int,
    seed_a: int,
    seed_b: int,
    constants: PhysicalConstants = ATOMIC,
    config: QuadratureConfig | None = None,
) -> tuple[float, float]:
    """Recovered additive constants for two independent trial states.

    The constant that would force <p_axis> = 0 in the momentum ansatz is
    c = -<p_canonical>; its magnitude is returned for each seed.  For bound
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
    family = trial_family(system, (seed_a, seed_b), constants)
    rep_a, rep_b = expectations(canonical_momentum(system, axis, constants), family, config)
    return abs(rep_a.value), abs(rep_b.value)


def inv_r2_closed_form(qn: QuantumNumbers, constants: PhysicalConstants = ATOMIC) -> float:
    """<1/r^2> = 1 / (n^3 a0^2 (L + 1/2))."""
    a0 = constants.a0
    return 1.0 / (qn.n**3 * a0**2 * (qn.L + 0.5))


def inv_r3_closed_form(qn: QuantumNumbers, constants: PhysicalConstants = ATOMIC) -> float:
    """<1/r^3> = 1 / (a0^3 n^3 L (L + 1/2) (L + 1)); needs L >= 1.

    Raises:
        DomainError: for L = 0, where the moment diverges.
    """
    if qn.L < 1:
        raise DomainError("<1/r^3> diverges for L = 0")
    a0 = constants.a0
    return 1.0 / (a0**3 * qn.n**3 * qn.L * (qn.L + 0.5) * (qn.L + 1))


def radial_moment(
    qn: QuantumNumbers,
    power: int,
    constants: PhysicalConstants = ATOMIC,
    config: QuadratureConfig | None = None,
) -> float:
    """<r^power> on the hydrogen level (n, L) by half-line quadrature."""
    return _radial_moment(hydrogen_state(qn, constants), power, config)


def _radial_moment(state: SeparableState, power: int, config: QuadratureConfig | None) -> float:
    # its own coordinate_integral, independent of the state's table
    spec = state.system.coords[0]
    ev = state.factors[0].evaluate
    cfg = config if config is not None else QuadratureConfig()

    def integrand(r):
        rr = np.asarray(r, dtype=float)
        return np.abs(np.asarray(ev(rr))) ** 2 * rr ** float(power)

    return coordinate_integral(spec, integrand, cfg.radial_order, state.radial_scale).real


def force_balance(
    qn: QuantumNumbers,
    constants: PhysicalConstants = ATOMIC,
    config: QuadratureConfig | None = None,
) -> ForceBalanceReport:
    """Circular-orbit balance hbar^2 L(L+1)/m <1/r^3> = e^2 <1/r^2>.

    The moments come from quadrature; the closed forms ride along for
    comparison.  Needs L >= 1 (no centrifugal barrier otherwise).
    """
    if qn.L < 1:
        raise DomainError("force balance needs L >= 1")
    return _force_balance(hydrogen_state(qn, constants), constants, config)


def _force_balance(
    state: SeparableState, constants: PhysicalConstants, config: QuadratureConfig | None
) -> ForceBalanceReport:
    # force_balance on a hydrogen state the caller already holds
    qn = state.quantum_numbers
    lsq = l_squared_expectation(state, constants)
    inv_r2_q = _radial_moment(state, -2, config)
    inv_r3_q = _radial_moment(state, -3, config)
    centrifugal = lsq / constants.m * inv_r3_q
    coulomb = constants.e2 * inv_r2_q
    residual = centrifugal - coulomb
    return ForceBalanceReport(
        n=qn.n,
        L=qn.L,
        inv_r2_quad=inv_r2_q,
        inv_r2_closed=inv_r2_closed_form(qn, constants),
        inv_r3_quad=inv_r3_q,
        inv_r3_closed=inv_r3_closed_form(qn, constants),
        centrifugal=centrifugal,
        coulomb=coulomb,
        residual=residual,
        relative_residual=residual / abs(coulomb),
    )


def naive_ehrenfest_residual(
    qn: QuantumNumbers,
    constants: PhysicalConstants = ATOMIC,
    config: QuadratureConfig | None = None,
) -> float:
    """Unbalanced radial force <-e^2/r^2> left by the naive operator.

    Strictly negative: with the drift dropped, nothing cancels the Coulomb
    pull on a stationary state.
    """
    return -constants.e2 * radial_moment(qn, -2, constants, config)


def p_theta_spectrum_scan(
    l_max: int = 6,
    constants: PhysicalConstants = ATOMIC,
    config: QuadratureConfig | None = None,
) -> list[ScanRow]:
    """<p_theta> on the circular-ish levels (n = L+1) for L <= l_max.

    A hermitian p_theta must average to zero on every real-sector
    eigenstate; the scan exposes any residual.

    Raises:
        DomainError: if l_max is negative or exceeds 10.
    """
    if not isinstance(l_max, (int, np.integer)) or not 0 <= l_max <= 10:
        raise DomainError(f"l_max must be an integer in [0, 10], got {l_max!r}")
    system = make_spherical()
    rows = []
    for L in range(l_max + 1):
        for M in range(-L, L + 1):
            state = hydrogen_state(QuantumNumbers(L + 1, L, M), constants)
            rep = expectation(canonical_momentum(system, 1, constants), state, config)
            rows.append(ScanRow(L=L, M=M, value=rep.value, quadrature_error=rep.quadrature_error))
    return rows


def cartesian_reality_check(
    seed: int,
    wavenumber: float = 0.0,
    constants: PhysicalConstants = ATOMIC,
    config: QuadratureConfig | None = None,
) -> ExpectationReport:
    """<p_x> on a random Cartesian trial state, optionally phase-twisted.

    With a twist e^(i k x) the expectation moves to hbar k exactly while
    the defect stays at the boundary-term level: the zero-drift limit of
    the ansatz reproduces the textbook operator.
    """
    trial = random_bound_trial(make_cartesian(), seed, constants)
    if wavenumber != 0.0:
        trial = apply_phase_twist(trial, 0, wavenumber)
    return expectation(canonical_momentum(make_cartesian(), 0, constants), trial, config)


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
    t = _Tally("legendre-parity")
    x = np.linspace(-1.0, 1.0, 101)
    for L in range(11):
        for M in range(0, L + 1):
            lhs, rhs = legendre_parity(L, M, x)
            scale = max(float(np.max(np.abs(lhs))), 1e-30)
            t.add(float(np.max(np.abs(lhs - rhs))), 1e-12 * scale)
    return t.result()


def _suite_recurrence() -> SuiteResult:
    # order-raising identity (x^2 - 1) dP_L^M/dx = sqrt(1 - x^2) P_L^{M+1} + M x P_L^M,
    # with P_L^{L+1} = 0; P_L^{M+1} comes from a climb with another seed than
    # the derivative's, so a wrong phase or seed shows
    t = _Tally("legendre-recurrence")
    x = np.linspace(-0.995, 0.995, 101)
    for L in range(11):
        for M in range(-L, L + 1):
            lhs = (x * x - 1.0) * assoc_legendre_deriv(L, M, x)
            raised = np.sqrt(1.0 - x * x) * assoc_legendre(L, M + 1, x) if M < L else np.zeros_like(x)
            term = M * x * assoc_legendre(L, M, x)
            scale = max(float(np.max(np.abs(raised))), float(np.max(np.abs(term))), 1e-30)
            t.add(float(np.max(np.abs(lhs - (raised + term)))), 1e-10 * scale)
    return t.result()


def _suite_fd_derivative() -> SuiteResult:
    # derivative against a central difference of the function itself
    t = _Tally("legendre-fd-derivative")
    x = np.linspace(-0.99, 0.99, 51)
    h = float(np.finfo(float).eps) ** (1.0 / 3.0)
    for L in range(9):
        for M in range(-L, L + 1):
            fd = (assoc_legendre(L, M, x + h) - assoc_legendre(L, M, x - h)) / (2.0 * h)
            dv = assoc_legendre_deriv(L, M, x)
            scale = max(float(np.max(np.abs(dv))), 1.0)
            t.add(float(np.max(np.abs(fd - dv))), 1e-6 * scale)
    return t.result()


def _suite_normalization(cfg: QuadratureConfig, constants: PhysicalConstants) -> SuiteResult:
    t = _Tally("normalization")
    families = [
        StateFamily.of(hydrogen_state(QuantumNumbers(n, L, M), constants))
        for n in range(1, 5)
        for L in range(n)
        for M in range(-L, L + 1)
    ]
    families += [trial_family(system, range(900, 903), constants) for system in preset_systems().values()]
    for family in families:
        for member_norms in zip(*family.tabulate(cfg)[2]):
            norm_sq, _ = combine_axes(member_norms)
            t.add(norm_sq.real - 1.0, 1e-10)
    return t.result()


# commutator sample points per topology, from a uniform draw u and the state's scale s
_SAMPLE = {
    "half-line": lambda u, s: s * (0.2 + 2.6 * u),
    "line": lambda u, s: s * 4.0 * (u - 0.5),
    "compact-periodic": lambda u, s: 2.0 * math.pi * (0.02 + 0.96 * u),
    "compact-nonperiodic": lambda u, s: 0.15 + (math.pi - 0.3) * u,
}


def _suite_commutators(constants: PhysicalConstants, seed: int) -> SuiteResult:
    t = _Tally("commutators")
    rng = np.random.default_rng(seed + 170)
    for k, system in enumerate(preset_systems().values()):
        # each residual in the units of q_i p_j or p_i p_j, so the bound is
        # the same relative precision in every unit system
        q_unit = [constants.a0 if spec.kind == "linear" else 1.0 for spec in system.coords]
        p_unit = [momentum_unit(spec.kind, constants) for spec in system.coords]
        first = 3000 + 100 * seed + 5 * k
        for state in trial_family(system, range(first, first + 5), constants).members:
            # five points, one row each: the draws come in point-by-point order
            draws = rng.random((5, system.dim))
            point = [_SAMPLE[spec.topology](u, state.radial_scale) for spec, u in zip(system.coords, draws.T)]
            psi_mag = np.maximum(np.abs(state.evaluate(point)), 1e-30)
            for i in range(system.dim):
                for j in range(system.dim):
                    res = commutator_qp_residual(system, i, j, state, point, constants)
                    t.add(res, 1e-7 * q_unit[i] * p_unit[j] * psi_mag)
            for i in range(system.dim):
                for j in range(i + 1, system.dim):
                    res = commutator_pp_residual(system, i, j, state, point, constants)
                    t.add(res, 1e-7 * p_unit[i] * p_unit[j] * psi_mag)
    return t.result()


def _suite_reality(
    cfg: QuadratureConfig, constants: PhysicalConstants, seed: int, trials: int
) -> SuiteResult:
    t = _Tally("reality-scan")
    hbar = constants.hbar
    a0 = constants.a0
    system = make_spherical()
    p_ops = [canonical_momentum(system, axis, constants) for axis in range(3)]

    for n in range(1, 5):
        for L in range(n):
            for M in range(-L, L + 1):
                qn = QuantumNumbers(n, L, M)
                state = hydrogen_state(qn, constants)
                rep_r = expectation(p_ops[0], state, cfg)
                t.add(abs(rep_r.value), _REALITY_FLOOR * hbar / a0)
                rep_th = expectation(p_ops[1], state, cfg)
                t.add(abs(rep_th.value), _REALITY_FLOOR * hbar)
                rep_ph = expectation(p_ops[2], state, cfg)
                t.add(abs(rep_ph.value - M * hbar), 1e-10 * hbar * max(1, abs(M)))

                # naive radial defect law: Im<p'_r> = hbar <1/r> = hbar/(n^2 a0)
                rep_naive = expectation(naive_momentum(system, 0, constants), state, cfg)
                inv_r = _radial_moment(state, -1, cfg)
                closed = 1.0 / (n * n * a0)
                law_scale = hbar * closed
                t.add(rep_naive.hermiticity_defect - hbar * inv_r, 1e-9 * law_scale)
                t.add(rep_naive.hermiticity_defect - hbar * closed, 1e-8 * law_scale)

                # naive polar defect law: Im<p'_theta> = hbar <cot(theta)/2>
                rep_naive_th = expectation(naive_momentum(system, 1, constants), state, cfg)
                g_th = drift_expectation(state, 1, cfg)
                t.add(rep_naive_th.hermiticity_defect - hbar * g_th, _REALITY_FLOOR * hbar)

    seeds = range(7000 + 1000 * seed, 7000 + 1000 * seed + trials)
    for sys_obj in preset_systems().values():
        for start in range(0, trials, _FAMILY_SIZE):
            family = trial_family(sys_obj, seeds[start : start + _FAMILY_SIZE], constants)
            for axis, spec in enumerate(sys_obj.coords):
                reps = expectations(canonical_momentum(sys_obj, axis, constants), family, cfg)
                tols = [reality_tolerance(rep, spec.kind, constants) for rep in reps]
                t.add(np.array([rep.hermiticity_defect for rep in reps]), np.array(tols))
    return t.result()


def _suite_ci_uniqueness(
    cfg: QuadratureConfig, constants: PhysicalConstants, seed: int
) -> SuiteResult:
    t = _Tally("ci-uniqueness")
    tol = 1e-8 * constants.hbar / constants.a0
    for system in (make_spherical(), make_cartesian()):
        # the seed pairs of ci_uniqueness_demo, as one family per system
        family = trial_family(system, range(500 + 20 * seed, 520 + 20 * seed), constants)
        reps = expectations(canonical_momentum(system, 0, constants), family, cfg)
        t.add(np.array([abs(rep.value) for rep in reps]), tol)
    return t.result()


def run_check_suites(
    config: QuadratureConfig | None = None,
    constants: PhysicalConstants = ATOMIC,
    seed: int = 0,
    reality_trials: int = 50,
) -> list[SuiteResult]:
    """Run every invariant suite; quadrature-sensitive ones use the
    acceptance tolerances, so degraded orders fail honestly."""
    cfg = config if config is not None else QuadratureConfig()
    return [
        _suite_parity(),
        _suite_recurrence(),
        _suite_fd_derivative(),
        _suite_normalization(cfg, constants),
        _suite_commutators(constants, seed),
        _suite_reality(cfg, constants, seed, reality_trials),
        _suite_ci_uniqueness(cfg, constants, seed),
    ]
