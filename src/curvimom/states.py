"""Separable wavefunctions: hydrogen eigenstates and random trial states.

Every state is a product of one-coordinate factors, each carrying its own
analytic derivative, so momentum operators act factor by factor without any
numerical differentiation of the state itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, UnsupportedAxisError
from .geometry import CoordinateSystem, make_spherical
from .quadrature import QuadratureConfig, axis_rules, combine_axes, contract, coordinate_integral
from .specfun import (
    QuantumNumbers,
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
    "hydrogen_state",
    "theta_eigenfactor",
    "phi_eigenfactor",
    "random_bound_trial",
    "apply_phase_twist",
    "state_overlap",
]

# trial factors are cut off this many decay lengths out; the Gaussian tail
# has long underflowed there, the cut just keeps the polynomial finite
_TRIAL_CUTOFF = 40.0


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
    """One coordinate factor: value and analytic derivative callables."""

    evaluate: Callable
    derivative: Callable


@dataclass(frozen=True, eq=False)
class SeparableState:
    """Product state psi(q) = prod_i factor_i(q_i) on a coordinate system."""

    factors: tuple[FactorFunction, ...]
    system: CoordinateSystem
    quantum_numbers: QuantumNumbers | None = None
    normalized: bool = True
    radial_scale: float = 1.0
    # tabulate's memo, one entry per config; it lives and dies with the state
    _tables: dict = field(default_factory=dict, init=False, repr=False)

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

    def tabulate(self, config: QuadratureConfig) -> tuple[list, tuple, list]:
        """Each factor's values on its coordinate's stacked nodes, and norms.

        Returns ``(rules, values, norms)``: ``axis_rules(system, config)``,
        per coordinate the factor's values on that rule's nodes (read-only),
        and per coordinate the ``contract``ed (full, half) pair of |f|^2.
        Each is computed once per config and kept on the state.
        """
        table = self._tables.get(config)
        if table is None:
            rules = axis_rules(self.system, config)
            values = tuple(_read_only(f.evaluate(rule.nodes)) for f, rule in zip(self.factors, rules))
            norms = [contract(rule, np.abs(vals) ** 2) for rule, vals in zip(rules, values)]
            table = self._tables[config] = (rules, values, norms)
        return table


def _read_only(values) -> np.ndarray:
    out = np.asarray(values)
    out.setflags(write=False)
    return out


def _hydrogen_radial(qn: QuantumNumbers, constants: PhysicalConstants) -> FactorFunction:
    n, L = qn.n, qn.L
    k = n - L - 1
    a = 2 * L + 1
    beta = 2.0 / (n * constants.a0)  # rho = beta * r
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
    analytic via the chain rule through x = cos(theta).
    """
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
    """Azimuthal factor e^(i M phi) / sqrt(2 pi)."""
    if not isinstance(M, (int, np.integer)):
        raise DomainError(f"azimuthal index must be an integer, got {M!r}")
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
    weights, so the product is normalized with no cross terms.
    """
    return SeparableState(
        factors=(
            _hydrogen_radial(qn, constants),
            theta_eigenfactor(qn.L, qn.M),
            phi_eigenfactor(qn.M),
        ),
        system=make_spherical(),
        quantum_numbers=qn,
        normalized=True,
        radial_scale=qn.n * constants.a0,
    )


def _poly_gaussian(coeffs: np.ndarray, center: float, scale: float) -> FactorFunction:
    c0, c1, c2 = (float(c) for c in coeffs)

    def evaluate(q):
        u = (np.asarray(q, dtype=float) - center) / scale
        val = (c0 + c1 * u + c2 * u * u) * np.exp(-0.5 * u * u)
        return np.where(np.abs(u) <= _TRIAL_CUTOFF, val, 0.0)

    def derivative(q):
        u = (np.asarray(q, dtype=float) - center) / scale
        val = ((c1 + 2.0 * c2 * u) - u * (c0 + c1 * u + c2 * u * u)) / scale
        val = val * np.exp(-0.5 * u * u)
        return np.where(np.abs(u) <= _TRIAL_CUTOFF, val, 0.0)

    return FactorFunction(evaluate, derivative)


def _sine_sum(coeffs: np.ndarray) -> FactorFunction:
    # vanishes at both poles, so the polar drift stays integrable
    ks = np.arange(1, len(coeffs) + 1, dtype=float)
    cs = np.asarray(coeffs, dtype=float)

    def evaluate(theta):
        th = np.asarray(theta, dtype=float)
        return np.sum(cs * np.sin(np.multiply.outer(th, ks)), axis=-1)

    def derivative(theta):
        th = np.asarray(theta, dtype=float)
        return np.sum(cs * ks * np.cos(np.multiply.outer(th, ks)), axis=-1)

    return FactorFunction(evaluate, derivative)


def _fourier_sum(coeffs: np.ndarray) -> FactorFunction:
    ms = np.arange(len(coeffs), dtype=float) - (len(coeffs) // 2)
    cs = np.asarray(coeffs, dtype=float) / math.sqrt(2.0 * math.pi)

    def evaluate(phi):
        ph = np.asarray(phi, dtype=float)
        return np.sum(cs * np.exp(1j * np.multiply.outer(ph, ms)), axis=-1)

    def derivative(phi):
        ph = np.asarray(phi, dtype=float)
        return np.sum(1j * ms * cs * np.exp(1j * np.multiply.outer(ph, ms)), axis=-1)

    return FactorFunction(evaluate, derivative)


def _normalized(factor: FactorFunction, spec, order: int, scale: float) -> FactorFunction:
    norm_sq = coordinate_integral(
        spec, lambda q: np.abs(np.asarray(factor.evaluate(q))) ** 2, order, scale
    )
    inv = 1.0 / math.sqrt(norm_sq.real)
    ev, dv = factor.evaluate, factor.derivative
    return FactorFunction(
        lambda q: inv * np.asarray(ev(q)),
        lambda q: inv * np.asarray(dv(q)),
    )


def random_bound_trial(
    system: CoordinateSystem, seed: int, constants: PhysicalConstants = ATOMIC
) -> SeparableState:
    """Random admissible trial state on ``system``, reproducible from ``seed``.

    Linear axes get polynomial-times-Gaussian profiles, the polar angle a
    truncated sine sum (vanishing at the poles), the azimuth a short Fourier
    sum.  Each factor is normalized by quadrature against its own weight.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    a0 = constants.a0
    config = QuadratureConfig()

    factors = []
    scales = [a0]
    for spec in system.coords:
        order = config.order_for(spec)
        if spec.topology == "half-line":
            scale = a0 * (0.8 + 0.4 * rng.random())
            raw = _poly_gaussian(rng.uniform(0.4, 1.0, 3), 0.0, scale)
            factors.append(_normalized(raw, spec, order, scale))
            scales.append(scale)
        elif spec.topology == "line":
            scale = a0 * (0.8 + 0.4 * rng.random())
            center = a0 * rng.uniform(-0.5, 0.5)
            raw = _poly_gaussian(rng.uniform(0.4, 1.0, 3), center, scale)
            factors.append(_normalized(raw, spec, order, scale))
            scales.append(scale)
        elif spec.topology == "compact-periodic":
            raw = _fourier_sum(rng.uniform(0.2, 1.0, 5))
            factors.append(_normalized(raw, spec, order, 1.0))
        else:
            raw = _sine_sum(rng.uniform(0.2, 1.0, 4))
            factors.append(_normalized(raw, spec, order, 1.0))

    return SeparableState(
        factors=tuple(factors),
        system=system,
        quantum_numbers=None,
        normalized=True,
        radial_scale=max(scales),
    )


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
    values_b = b.tabulate(config)[1]
    value, _ = combine_axes(
        [contract(rule, np.conj(va) * vb) for rule, va, vb in zip(rules, values_a, values_b)]
    )
    return value
