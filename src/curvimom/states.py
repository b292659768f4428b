"""Separable wavefunctions: hydrogen eigenstates and random trial states.

Every state is a product of one-coordinate factors, each carrying its own
analytic derivative, so momentum operators act factor by factor without any
numerical differentiation of the state itself.  Factors keep their own tables,
and hydrogen factors come from bounded caches, so states share both.  Trial
states come in families, whose factors evaluate every member at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, UnsupportedAxisError
from .geometry import CoordinateSpec, CoordinateSystem, make_spherical
from .quadrature import (
    AxisRule, QuadratureConfig, axis_rule, combine_axes, contract, contract_rows, coordinate_integral
)
from .specfun import (
    QuantumNumbers,
    _require_degree_order,
    assoc_laguerre,
    assoc_laguerre_deriv,
    assoc_legendre,
    assoc_legendre_deriv,
)

__all__ = [
    "PhysicalConstants",
    "ATOMIC",
    "load_constants",
    "FactorFunction",
    "SeparableState",
    "StateFamily",
    "hydrogen_state",
    "theta_eigenfactor",
    "phi_eigenfactor",
    "random_bound_trial",
    "trial_family",
    "apply_phase_twist",
    "state_overlap",
]

@dataclass(frozen=True)
class PhysicalConstants:
    """hbar, electron mass and squared charge e^2 (Gaussian convention)."""

    hbar: float
    m: float
    e2: float

    def __post_init__(self) -> None:
        for label, value in (("hbar", self.hbar), ("m", self.m), ("e2", self.e2)):
            if not 0.0 < value < math.inf:
                raise ConfigurationError(f"{label} must be positive and finite, got {value!r}")
        # |psi|^2 scales as a0^-3 and the volume element as a0^3
        a0_cubed = self.a0 * self.a0 * self.a0
        if not (0.0 < a0_cubed < math.inf and 1.0 / a0_cubed < math.inf):
            raise ConfigurationError(f"a0^3 and a0^-3 must be finite and nonzero, a0 = {self.a0!r}")

    @property
    def a0(self) -> float:
        """Bohr radius hbar^2 / (m e^2)."""
        return self.hbar * self.hbar / (self.m * self.e2)

    @classmethod
    def atomic(cls) -> "PhysicalConstants":
        return cls(1.0, 1.0, 1.0)


ATOMIC = PhysicalConstants.atomic()


def load_constants(path: str) -> PhysicalConstants:
    """Read constants from a JSON file with keys hbar, m, e2.

    Raises:
        ConfigurationError: if the file is not a JSON object holding a
            positive number under each key.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        values = [float(raw[key]) for key in ("hbar", "m", "e2")]
    except KeyError as exc:
        raise ConfigurationError(f"constants file {path!r} is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"constants file {path!r} is not a JSON object of numbers: {exc}"
        ) from exc
    return PhysicalConstants(*values)


@dataclass(frozen=True)
class FactorFunction:
    """One coordinate factor: value and analytic derivative callables, and
    its tables, which every state holding the factor shares."""

    evaluate: Callable
    derivative: Callable
    # table's memo, keyed on (spec, order) plus the scale on line and half-line axes
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def table(self, spec: CoordinateSpec, order: int, scale) -> tuple[AxisRule, np.ndarray, list]:
        """``axis_rule(spec, order, scale)``, read-only values there and the
        |f|^2 pair of each row, once; a family's factor takes a tuple of scales."""
        key = (spec, order, scale) if spec.topology in ("line", "half-line") else (spec, order)
        entry = self._tables.get(key)
        if entry is None:
            rule = axis_rule(spec, order, scale)
            values = np.asarray(self.evaluate(rule.nodes))
            values.setflags(write=False)
            entry = self._tables[key] = (rule, values, contract_rows(rule, np.abs(values) ** 2))
        return entry


@dataclass(frozen=True, eq=False)
class SeparableState:
    """Product state psi(q) = prod_i factor_i(q_i) on a coordinate system."""

    factors: tuple[FactorFunction, ...]
    system: CoordinateSystem
    quantum_numbers: QuantumNumbers | None = None
    normalized: bool = True
    radial_scale: float = 1.0

    def __post_init__(self) -> None:
        if len(self.factors) != self.system.dim:
            raise ConfigurationError(
                f"{len(self.factors)} factors for {self.system.dim}-coordinate "
                f"system {self.system.name!r}"
            )

    def evaluate(self, point: Sequence) -> complex | np.ndarray:
        """psi at ``point``: per-coordinate scalars, or equal-length arrays
        for a batch of points (then one value per point)."""
        if len(point) != self.system.dim:
            raise ConfigurationError(
                f"point has {len(point)} components, expected {self.system.dim}"
            )
        return math.prod((factor.evaluate(q) for factor, q in zip(self.factors, point)), start=1 + 0j)

    def tabulate(self, config: QuadratureConfig) -> tuple[tuple, tuple, tuple]:
        """``(rules, values, norms)``: per coordinate, its factor's ``table``."""
        specs, scale = self.system.coords, config.radial_scale
        return tuple(zip(*(f.table(s, config.order_for(s), scale) for f, s in zip(self.factors, specs))))


@lru_cache(maxsize=256)
def _hydrogen_radial(n: int, L: int, a0: float) -> FactorFunction:
    k = n - L - 1
    a = 2 * L + 1
    beta = 2.0 / (n * a0)  # rho = beta * r
    log_norm = 1.5 * math.log(beta) + 0.5 * (
        math.lgamma(k + 1) - math.lgamma(n + L + 1) - math.log(2.0 * n)
    )
    norm = math.exp(log_norm)

    def evaluate(r):
        rho = beta * np.asarray(r, dtype=float)
        return norm * np.exp(-0.5 * rho) * rho**L * assoc_laguerre(k, a, rho)

    def derivative(r):
        rho = beta * np.asarray(r, dtype=float)
        lag = assoc_laguerre(k, a, rho)
        dlag = assoc_laguerre_deriv(k, a, rho)
        poly = -0.5 * rho**L * lag + rho**L * dlag
        if L > 0:
            poly = poly + L * rho ** (L - 1) * lag
        return norm * beta * np.exp(-0.5 * rho) * poly

    return FactorFunction(evaluate, derivative)


def theta_eigenfactor(L: int, M: int) -> FactorFunction:
    """Normalized polar factor Theta_LM(theta) proportional to P_L^M(cos theta).

    Unit norm against the sin(theta) measure on (0, pi); the derivative is
    analytic via the chain rule through x = cos(theta).  One shared factor
    per (L, M); DomainError unless L and M are integers with |M| <= L.
    """
    _require_degree_order(L, M)  # before the cache, which takes 1.0 for 1
    return _theta_factor(int(L), int(M))


@lru_cache(maxsize=256)
def _theta_factor(L: int, M: int) -> FactorFunction:
    norm = math.sqrt(0.5 * (2 * L + 1)) * math.exp(
        0.5 * (math.lgamma(L - M + 1) - math.lgamma(L + M + 1))
    )

    def evaluate(theta):
        return norm * assoc_legendre(L, M, np.cos(theta))

    def derivative(theta):
        th = np.asarray(theta, dtype=float)
        return -norm * np.sin(th) * assoc_legendre_deriv(L, M, np.cos(th))

    return FactorFunction(evaluate, derivative)


def phi_eigenfactor(M: int) -> FactorFunction:
    """Azimuthal factor e^(i M phi) / sqrt(2 pi), one shared factor per M."""
    if not isinstance(M, (int, np.integer)):  # before the cache, which takes 1.0 for 1
        raise DomainError(f"azimuthal index must be an integer, got {M!r}")
    return _phi_factor(int(M))


@lru_cache(maxsize=256)
def _phi_factor(M: int) -> FactorFunction:
    norm = 1.0 / math.sqrt(2.0 * math.pi)

    def evaluate(phi):
        return norm * np.exp(1j * M * np.asarray(phi, dtype=float))

    def derivative(phi):
        return 1j * M * evaluate(phi)

    return FactorFunction(evaluate, derivative)


def hydrogen_state(
    qn: QuantumNumbers, constants: PhysicalConstants = ATOMIC
) -> SeparableState:
    """Bound hydrogen eigenstate (n, L, M) on the spherical system.

    All three factors are individually unit-norm against their coordinate
    weights, so the product is normalized with no cross terms.  The factors
    are shared with every other state of the same (n, L, a0), (L, M) or M.
    """
    return SeparableState(
        factors=(
            _hydrogen_radial(int(qn.n), int(qn.L), constants.a0),
            theta_eigenfactor(qn.L, qn.M),
            phi_eigenfactor(qn.M),
        ),
        system=make_spherical(),
        quantum_numbers=qn,
        normalized=True,
        radial_scale=qn.n * constants.a0,
    )


_SINE_KS, _FOURIER_MS = np.arange(1.0, 5.0), np.arange(-2.0, 3.0)  # the trial harmonics
_NORM_CONFIG = QuadratureConfig()  # trial factors are normalised at the default orders


def _poly_gaussian(scale, center, c0, c1, c2, inv=1.0) -> FactorFunction:
    # (c0 + c1 u + c2 u^2) e^(-u^2/2), u = (q - center)/scale, times the
    # normalisation constant inv; each parameter a float, or a (k, 1) column

    def evaluate(q):
        u = (np.asarray(q, dtype=float) - center) / scale
        return inv * ((c0 + c1 * u + c2 * u * u) * np.exp(-0.5 * u * u))

    def derivative(q):
        u = (np.asarray(q, dtype=float) - center) / scale
        val = ((c1 + 2.0 * c2 * u) - u * (c0 + c1 * u + c2 * u * u)) / scale
        return inv * (val * np.exp(-0.5 * u * u))

    return FactorFunction(evaluate, derivative)


def _sine_sum(coeffs, inv=1.0) -> FactorFunction:
    # sum of c_k sin(k theta), k = 1..4: vanishes at both poles, so the polar
    # drift stays integrable; coeffs (4,), or (k, 1, 4) for k members
    def evaluate(theta):
        th = np.asarray(theta, dtype=float)
        return inv * np.sum(coeffs * np.sin(np.multiply.outer(th, _SINE_KS)), axis=-1)

    def derivative(theta):
        th = np.asarray(theta, dtype=float)
        return inv * np.sum(coeffs * _SINE_KS * np.cos(np.multiply.outer(th, _SINE_KS)), axis=-1)

    return FactorFunction(evaluate, derivative)


def _fourier_sum(cs, inv=1.0) -> FactorFunction:
    # sum of c_m e^(i m phi), m = -2..2, the c_m already divided by sqrt(2 pi);
    # cs (5,), or (k, 1, 5) for k members
    def evaluate(phi):
        ph = np.asarray(phi, dtype=float)
        return inv * np.sum(cs * np.exp(1j * np.multiply.outer(ph, _FOURIER_MS)), axis=-1)

    def derivative(phi):
        ph = np.asarray(phi, dtype=float)
        return inv * np.sum(1j * _FOURIER_MS * cs * np.exp(1j * np.multiply.outer(ph, _FOURIER_MS)), axis=-1)

    return FactorFunction(evaluate, derivative)


class StateFamily(NamedTuple):
    """States of one system tabulated together: ``factors`` holds one factor
    per coordinate that evaluates all k ``members`` at once, a (k, n) table."""

    system: CoordinateSystem
    members: tuple[SeparableState, ...]
    factors: tuple[FactorFunction, ...]

    @classmethod
    def of(cls, state: SeparableState) -> "StateFamily":
        return cls(state.system, (state,), state.factors)

    def tabulate(self, config: QuadratureConfig) -> tuple[tuple, tuple, tuple]:
        """``(rules, values, norms)`` per coordinate, from the factors' tables at each
        member's radial scale: a (k, n) table (one state's own, (n,)) and k |f|^2 pairs."""
        scales = [state.radial_scale for state in self.members]
        scale = scales[0] if len(scales) == 1 else tuple(scales)  # a state's own factors key on one scale
        specs = self.system.coords
        return tuple(zip(*[f.table(s, config.order_for(s), scale) for f, s in zip(self.factors, specs)]))


def trial_family(
    system: CoordinateSystem, seeds: Sequence[int], constants: PhysicalConstants = ATOMIC
) -> StateFamily:
    """The random trial states of one or more ``seeds`` on ``system``, as one family:
    each axis's raw profile is evaluated once for all members, on (k, 1) parameter
    columns (one seed keeps its floats), to fold each member's normalisation
    constant, against the factor's own weight at its own scale, into its factor."""
    if not seeds:
        raise DomainError("a trial family needs at least one seed")
    for seed in seeds:
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    a0, one = constants.a0, len(rngs) == 1
    radial = [a0] * len(rngs)  # each member's radial scale: a0 or its largest linear scale
    axes = []  # per coordinate: builder, each member's parameters, the family's ones, 1 / norms
    for spec in system.coords:
        if spec.topology in ("line", "half-line"):
            # scale, center, coefficients: a lone state's draw order
            line = spec.topology == "line"
            rows = [[a0 * (0.8 + 0.4 * rng.random()), a0 * rng.uniform(-0.5, 0.5) if line else 0.0,
                     *rng.uniform(0.4, 1.0, 3).tolist()] for rng in rngs]
            radial = [max(r, row[0]) for r, row in zip(radial, rows)]
            builder, params = _poly_gaussian, rows[0] if one else tuple(np.array(rows).T[:, :, None])
            scale = params[0] if one else params[0][:, 0]
        else:
            periodic = spec.topology == "compact-periodic"
            coeffs = [rng.uniform(0.2, 1.0, 5 if periodic else 4) for rng in rngs]
            rows = [(c / math.sqrt(2.0 * math.pi) if periodic else c,) for c in coeffs]
            params = rows[0] if one else (np.array([c for c, in rows])[:, None],)  # k rows: (k, 1, m)
            builder, scale = _fourier_sum if periodic else _sine_sum, 1.0
        raw = builder(*params).evaluate
        norm_sq = coordinate_integral(spec, lambda q: np.abs(raw(q)) ** 2, _NORM_CONFIG.order_for(spec), scale)
        inv = [1.0 / math.sqrt(n) for n in ([norm_sq.real] if one else norm_sq.tolist())]
        axes.append((builder, rows, params, inv))

    members = tuple(
        SeparableState(tuple([b(*rows[i], inv[i]) for b, rows, _, inv in axes]), system, radial_scale=r)
        for i, r in enumerate(radial)
    )
    if one:  # a family of one reads its member's factors
        return StateFamily.of(members[0])
    return StateFamily(system, members, tuple(b(*params, np.array(inv)[:, None]) for b, _, params, inv in axes))


def random_bound_trial(
    system: CoordinateSystem, seed: int, constants: PhysicalConstants = ATOMIC
) -> SeparableState:
    """Random admissible trial state on ``system``, reproducible from ``seed``.

    Linear axes get polynomial-times-Gaussian profiles, the polar angle a
    truncated sine sum (vanishing at the poles), the azimuth a short Fourier
    sum.  Each factor is normalized by quadrature against its own weight.
    This is the one member of ``trial_family(system, [seed], constants)``.
    """
    return trial_family(system, (seed,), constants).members[0]


def apply_phase_twist(state: SeparableState, axis: int, wavenumber: float) -> SeparableState:
    """Multiply the factor on a line axis by e^(i k q).

    Leaves |psi| and therefore the normalization untouched.
    """
    spec = state.system.coords[axis]
    if spec.topology != "line":
        raise UnsupportedAxisError(
            f"phase twist needs a line-topology axis, {spec.name!r} is {spec.topology}"
        )
    base = state.factors[axis]
    ev, dv = base.evaluate, base.derivative
    k = float(wavenumber)

    def evaluate(q):
        return np.asarray(ev(q)) * np.exp(1j * k * np.asarray(q, dtype=float))

    def derivative(q):
        phase = np.exp(1j * k * np.asarray(q, dtype=float))
        return (np.asarray(dv(q)) + 1j * k * np.asarray(ev(q))) * phase

    factors = list(state.factors)
    factors[axis] = FactorFunction(evaluate, derivative)
    return replace(state, factors=tuple(factors), quantum_numbers=None)


def state_overlap(
    a: SeparableState, b: SeparableState, config: QuadratureConfig | None = None
) -> complex:
    """Inner product <a|b> against the volume weight."""
    if a.system.name != b.system.name:
        raise ConfigurationError(
            f"overlap needs matching systems, got {a.system.name!r} and {b.system.name!r}"
        )
    if config is None:
        config = QuadratureConfig(radial_scale=max(a.radial_scale, b.radial_scale))
    rules, values_a, _ = a.tabulate(config)
    pairs = [contract(rule, np.conj(va) * vb) for rule, va, vb in zip(rules, values_a, b.tabulate(config)[1])]
    return combine_axes(pairs)[0]
