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
from .quadrature import AxisRule, QuadratureConfig, combine_axes, contract, coordinate_integral
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
    apply_phase_twist,
    hydrogen_state,
    random_bound_trial,
)

__all__ = [
    "ExpectationReport",
    "ForceBalanceReport",
    "ScanRow",
    "SuiteResult",
    "momentum_unit",
    "expectation",
    "hermiticity_defect",
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


@dataclass(frozen=True)
class ExpectationReport:
    """One expectation value with its reality diagnostics."""

    value: complex
    hermiticity_defect: float
    boundary_term: float
    quadrature_error: float


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


def _boundary_term(
    op: MomentumOperator, state: SeparableState, rule: AxisRule, values: np.ndarray, other: float
) -> float:
    # -(hbar/2) [w |f|^2] on the operator's axis, times the other axes' norms;
    # ``rule`` and ``values`` are that axis's stacked rule and table
    spec = state.system.coords[op.axis]

    def surface(end: float, node: int) -> float:
        if end in measure_factor(spec).zero_ends:  # w vanishes there exactly
            return 0.0
        if math.isfinite(end):
            return float(spec.weight.value(end)) * abs(complex(state.factors[op.axis].evaluate(end))) ** 2
        # an infinite end is read at the outermost full-order node (nodes
        # ascend); bound states have long underflowed there
        return float(spec.weight.value(rule.nodes[node])) * abs(complex(values[node])) ** 2

    return -0.5 * op.hbar * (surface(spec.upper, rule.full - 1) - surface(spec.lower, 0)) * other


def expectation(
    op: MomentumOperator, state: SeparableState, config: QuadratureConfig | None = None
) -> ExpectationReport:
    """<psi| p |psi> by separable quadrature, with reality diagnostics.

    The quadrature scale always follows the state's own radial scale; the
    config contributes the orders.

    Raises:
        PreconditionError: if the state is not normalized.
    """
    if not state.normalized:
        raise PreconditionError("expectation values require a normalized state")
    base = config if config is not None else QuadratureConfig()
    cfg = base.with_scale(state.radial_scale)

    rules, values, norms = state.tabulate(cfg)
    rule = rules[op.axis]
    pairs = list(norms)
    pairs[op.axis] = contract(rule, _momentum_values(op, state.factors[op.axis], rule.nodes, values[op.axis]))
    value, qerr = combine_axes(pairs)
    other = math.prod(full.real for j, (full, _) in enumerate(norms) if j != op.axis)
    return ExpectationReport(
        value=value,
        hermiticity_defect=value.imag,
        boundary_term=_boundary_term(op, state, rule, values[op.axis], other),
        quadrature_error=qerr,
    )


def hermiticity_defect(
    op: MomentumOperator, state: SeparableState, config: QuadratureConfig | None = None
) -> float:
    """Im <p>: zero for a hermitian operator on an admissible state."""
    return expectation(op, state, config).hermiticity_defect


def reality_tolerance(
    report: ExpectationReport, kind: str, constants: PhysicalConstants = ATOMIC
) -> float:
    """Reality-contract bound: max(10 x quadrature error, 1e-9 natural)."""
    return max(10.0 * report.quadrature_error, _REALITY_FLOOR * momentum_unit(kind, constants))


def drift_expectation(
    state: SeparableState, axis: int, config: QuadratureConfig | None = None
) -> float:
    """<g_axis>: the bulk piece of the naive operator's defect law."""
    base = config if config is not None else QuadratureConfig()
    cfg = base.with_scale(state.radial_scale)
    g = measure_factor(state.system.coords[axis]).drift
    rules, values, norms = state.tabulate(cfg)
    pairs = list(norms)
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
    out = []
    for seed in (seed_a, seed_b):
        trial = random_bound_trial(system, seed, constants)
        rep = expectation(canonical_momentum(system, axis, constants), trial, config)
        out.append(abs(rep.value))
    return out[0], out[1]


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
    state = hydrogen_state(qn, constants)
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
    # degree-lowering identity with the standard index placement
    t = _Tally("legendre-recurrence")
    x = np.linspace(-0.995, 0.995, 101)
    for L in range(11):
        for M in range(-L, L + 1):
            lhs = (x * x - 1.0) * assoc_legendre_deriv(L, M, x)
            term1 = L * x * assoc_legendre(L, M, x)
            term2 = (
                (L + M) * assoc_legendre(L - 1, M, x) if L - 1 >= abs(M) else np.zeros_like(x)
            )
            scale = max(
                float(np.max(np.abs(term1))), float(np.max(np.abs(term2))), 1e-30
            )
            t.add(float(np.max(np.abs(lhs - (term1 - term2)))), 1e-10 * scale)
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
    states = [
        hydrogen_state(QuantumNumbers(n, L, M), constants)
        for n in range(1, 5)
        for L in range(n)
        for M in range(-L, L + 1)
    ]
    states += [
        random_bound_trial(system, 900 + k, constants)
        for system in preset_systems().values()
        for k in range(3)
    ]
    for state in states:
        norm_sq, _ = combine_axes(state.tabulate(cfg.with_scale(state.radial_scale))[2])
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
    counter = 0
    for system in preset_systems().values():
        # each residual in the units of q_i p_j or p_i p_j, so the bound is
        # the same relative precision in every unit system
        q_unit = [constants.a0 if spec.kind == "linear" else 1.0 for spec in system.coords]
        p_unit = [momentum_unit(spec.kind, constants) for spec in system.coords]
        for _ in range(5):
            state = random_bound_trial(system, 3000 + 100 * seed + counter, constants)
            counter += 1
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

    for sys_obj in preset_systems().values():
        for k in range(trials):
            trial = random_bound_trial(sys_obj, 7000 + 1000 * seed + k, constants)
            for axis in range(sys_obj.dim):
                rep = expectation(canonical_momentum(sys_obj, axis, constants), trial, cfg)
                tol = reality_tolerance(rep, sys_obj.coords[axis].kind, constants)
                t.add(rep.hermiticity_defect, tol)
    return t.result()


def _suite_ci_uniqueness(
    cfg: QuadratureConfig, constants: PhysicalConstants, seed: int
) -> SuiteResult:
    t = _Tally("ci-uniqueness")
    tol = 1e-8 * constants.hbar / constants.a0
    for system, axis in ((make_spherical(), 0), (make_cartesian(), 0)):
        for k in range(10):
            c_a, c_b = ci_uniqueness_demo(
                system, axis, 500 + 20 * seed + 2 * k, 501 + 20 * seed + 2 * k, constants, cfg
            )
            t.add(c_a, tol)
            t.add(c_b, tol)
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
