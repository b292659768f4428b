"""Separable wavefunctions: hydrogen eigenstates and random trial states.

Every state is a product of one-coordinate factors, each carrying its own
analytic derivative, so momentum operators act factor by factor without any
numerical differentiation of the state itself.  Factors keep their own value
and derivative tables and momentum sums, and hydrogen factors come from bounded
caches, so states share them all.  A family of k states is one state whose factors give (k, n)
tables: a trial family's evaluate every member at once, a hydrogen family's stack
its members' shared factors.  Moments such as <1/r^p> are sums over those same value
tables.  Lengths are in units of a0: physical constants only convert outputs.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, UnsupportedAxisError, is_integer
from .geometry import CoordinateSpec, CoordinateSystem, _zero_drift, make_spherical, measure_factor
from .quadrature import (
    DEFAULT_CONFIG, HERMITE_ORDER, AxisRule, QuadratureConfig, axes_product, axis_rule, contract_rows,
    coordinate_integral, hermite_rule,
)
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
    "hydrogen_family",
    "random_bound_trial",
    "trial_family",
    "apply_phase_twist",
    "state_overlap",
]

@dataclass(frozen=True)
class PhysicalConstants:
    """hbar, electron mass and squared charge e^2 (Gaussian convention).

    The library works in units of a0 and hbar, so the constants only convert what
    the command line prints; they are refused when an output unit is not a finite
    normal float.
    """

    hbar: float
    m: float
    e2: float

    def __post_init__(self) -> None:
        for label, value in (("hbar", self.hbar), ("m", self.m), ("e2", self.e2)):
            if not 0.0 < value < math.inf:
                raise ConfigurationError(f"{label} must be positive and finite, got {value!r}")
        units = {"a0": self.a0, "hbar/a0": self.hbar * self.length_unit(-1), "a0^-2": self.length_unit(-2),
                 "a0^-3": self.length_unit(-3), "e2/a0^2": self.e2 * self.length_unit(-2)}
        for label, unit in units.items():
            if not sys.float_info.min <= unit < math.inf:
                raise ConfigurationError(f"the unit {label} must be a finite normal float, got {unit!r}")

    @property
    def a0(self) -> float:
        """Bohr radius hbar^2 / (m e^2)."""
        return self.hbar * self.hbar / self.m / self.e2

    def length_unit(self, power: int) -> float:
        """a0^power, the unit of <r^power>; inf where it overflows."""
        try:
            return self.a0**power
        except (OverflowError, ZeroDivisionError):  # ZeroDivisionError: a0 underflowed to 0
            return math.inf


ATOMIC = PhysicalConstants(1.0, 1.0, 1.0)


def load_constants(path: str) -> PhysicalConstants:
    """Read constants from a JSON file with keys hbar, m, e2.

    Raises:
        ConfigurationError: if the file cannot be read, or is not a JSON object
            holding a positive number under each key; a boolean or a string is not a number.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        values = [raw[key] for key in ("hbar", "m", "e2")]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            raise TypeError(f"got {values!r}")
        values = [float(v) for v in values]
    except OSError as exc:
        raise ConfigurationError(f"constants file {path!r} cannot be read: {exc.strerror or exc}") from exc
    except KeyError as exc:
        raise ConfigurationError(f"constants file {path!r} is missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(
            f"constants file {path!r} is not a JSON object of numbers: {exc}"
        ) from exc
    return PhysicalConstants(*values)


@dataclass(frozen=True, eq=False)
class FactorFunction:
    """One coordinate factor: value and analytic derivative callables, the coordinate ``spec``
    it lives on and the map ``scale`` of a line or half-line rule (both required, as they pick
    the rule), and one memo of its rule, tables and momentum sums, which every state holding the
    factor shares.  A factor that is a polynomial (degree <= 2) in u = (q - centre)/width times
    e^(-u^2/2) names its ``peak`` (width, centre) and tabulates on ``hermite_rule`` there, not on
    ``axis_rule`` at ``scale``: its norms and momentum sums are exact on it, and stay so for its
    phase twist, as the phase cancels in both.  Overlaps and moments, whose integrands need not be
    a polynomial times a Gaussian, are summed on the topology's rule.  A family's factor may stack
    the ``parts`` of its members, one per row, scales and peaks too.  Factors compare by identity."""

    evaluate: Callable
    derivative: Callable
    parts: tuple = field(default=(), repr=False, compare=False)
    spec: CoordinateSpec = field(kw_only=True)
    scale: float | tuple = field(kw_only=True)
    peak: tuple | None = field(default=None, kw_only=True)
    # the rule, table, slopes and momentum sums, keyed on (what, order of the factor's rule, drift or None)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def derived(self, evaluate: Callable, derivative: Callable) -> "FactorFunction":
        """A new factor with these callables on this one's coordinate, scale and peak, so on its rule,
        its memo empty."""
        return FactorFunction(evaluate, derivative, spec=self.spec, scale=self.scale, peak=self.peak)

    def _memoised(self, what: str, config: QuadratureConfig, build: Callable, drift=None, keep=None):
        # the entry for what at the order of the factor's rule (HERMITE_ORDER at a peak, else config's for
        # spec) and drift, else build's with its arrays made read-only (a rule's are), kept unless keep() is false
        key = what, HERMITE_ORDER if self.peak is not None else config.order_for(self.spec), drift
        entry = self._memo.get(key)
        if entry is None:
            entry = build()
            for array in entry if isinstance(entry, tuple) else (entry,):
                if isinstance(array, np.ndarray):
                    array.setflags(write=False)
            if keep is None or keep():
                self._memo[key] = entry
        return entry

    def rule(self, config: QuadratureConfig) -> AxisRule:
        """The nodes of ``table``, once: ``hermite_rule`` at ``peak``, else ``axis_rule`` at ``scale``
        and the config's order for ``spec``; a stack's parts tabulate on their own rules, so a stack
        builds one only when asked."""
        return self._memoised("rule", config, lambda: hermite_rule(self.spec, *self.peak) if self.peak is not None
                              else axis_rule(self.spec, config.order_for(self.spec), self.scale))

    def table(self, config: QuadratureConfig) -> tuple[np.ndarray, np.ndarray]:
        """Read-only values on ``rule``'s nodes and the (k, 2) |f|^2 (full, half) sums
        of its k rows, once; a stack reads its parts' own tables."""
        def build():
            if self.parts:
                rows = [f.table(config) for f in self.parts]
                return np.stack([row[0] for row in rows]), np.concatenate([row[1] for row in rows])
            rule = self.rule(config)
            values = np.asarray(self.evaluate(rule.nodes))
            return values, contract_rows(rule, np.abs(values) ** 2)
        return self._memoised("table", config, build)

    def derivative_table(self, config: QuadratureConfig) -> np.ndarray:
        """The read-only derivative on ``rule``'s nodes, once, and only when asked for (a derived factor's
        may raise); a stack's is on its own k-row rule, row i on part i's nodes, and only tests ask."""
        return self._memoised("slopes", config, lambda: np.asarray(self.derivative(self.rule(config).nodes)))

    def momentum_sums(self, config: QuadratureConfig, drift: Callable) -> np.ndarray:
        """The read-only (k, 2) (full, half) sums of conj(f) -i (f' + drift f) of its k rows, from
        ``table`` and ``derivative_table``; a stack concatenates its parts'.  They are kept only for
        the drifts an operator carries, the canonical one of ``spec`` and the naive zero, so at most
        two per order: any other drift is summed afresh on every call."""
        def build():
            if self.parts:
                return np.concatenate([f.momentum_sums(config, drift) for f in self.parts])
            rule, values, slopes = self.rule(config), self.table(config)[0], self.derivative_table(config)
            return contract_rows(rule, np.conj(values) * -1j * (slopes + drift(rule.nodes) * values))
        keep = lambda: drift in (measure_factor(self.spec).drift, _zero_drift)
        return self._memoised("momenta", config, build, drift, keep)


@dataclass(frozen=True, eq=False)
class SeparableState:
    """Product state psi(q) = prod_i factor_i(q_i) on a coordinate system; a family's factors hold k rows."""

    factors: tuple[FactorFunction, ...]
    system: CoordinateSystem
    normalized: bool = True

    def __post_init__(self) -> None:
        if tuple(f.spec for f in self.factors) != self.system.coords:
            raise ConfigurationError(
                f"{len(self.factors)} factors for system {self.system.name!r}: it needs one on each "
                f"of its coordinates {[spec.name for spec in self.system.coords]}, in order"
            )

    def evaluate(self, point: Sequence) -> complex | np.ndarray:
        """psi at ``point``: per-coordinate scalars, or equal-length arrays
        for a batch of points (then one value per point)."""
        if len(point) != self.system.dim:
            raise ConfigurationError(
                f"point has {len(point)} components, expected {self.system.dim}"
            )
        return math.prod((factor.evaluate(q) for factor, q in zip(self.factors, point)), start=1 + 0j)

    @property
    def is_family(self) -> bool:
        """Whether the factors hold k members' rows: a family's factors carry a tuple of k scales."""
        return any(isinstance(f.scale, tuple) for f in self.factors)

    def tabulate(self, config: QuadratureConfig) -> tuple[tuple, tuple]:
        """``(values, norms)`` per coordinate, from the factors' tables, each on its factor's
        own rule: a (k, n) table (one state's own, (n,)) and the (k, 2) |f|^2 sums."""
        return tuple(zip(*[f.table(config) for f in self.factors]))

    def norms(self, config: QuadratureConfig) -> np.ndarray:
        """Each member's <psi|psi>, a (k,) array: ``axes_product`` of the full-order
        |f|^2 sums from ``tabulate``, the tables every expectation of the state reads."""
        return axes_product(self.tabulate(config)[1]).real

    def moments(self, axis: int, kernel: Callable, config: QuadratureConfig) -> list[float]:
        """Each member's full-order integral of kernel(q) |f|^2 w dq on one coordinate, by
        ``coordinate_integral`` on the factor's own rule, |f|^2 read from the value table's
        full-order nodes so that no factor is evaluated again; a kernel need not be a polynomial,
        so a factor at a peak is evaluated on the topology's rule at its scale instead."""
        f = self.factors[axis]
        if f.peak is None:
            rule = f.rule(config)
            full = np.abs(f.table(config)[0][..., : rule.full]) ** 2
            total = coordinate_integral(rule, lambda q: full * kernel(q))
        else:
            rule = axis_rule(f.spec, config.order_for(f.spec), f.scale)
            total = coordinate_integral(rule, lambda q: np.abs(f.evaluate(q)) ** 2 * kernel(q))
        return np.reshape(total.real, -1).tolist()


@lru_cache(maxsize=256)
def _hydrogen_radial(n: int, L: int) -> FactorFunction:
    k = n - L - 1
    a = 2 * L + 1
    beta = 2.0 / n  # rho = beta * r, r in units of a0
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

    return FactorFunction(evaluate, derivative, spec=make_spherical().coords[0], scale=float(n))


@lru_cache(maxsize=256)
def _theta_factor(L: int, M: int) -> FactorFunction:
    norm = math.sqrt(0.5 * (2 * L + 1)) * math.exp(0.5 * (math.lgamma(L - M + 1) - math.lgamma(L + M + 1)))

    def evaluate(theta):
        return norm * assoc_legendre(L, M, np.cos(theta))

    def derivative(theta):
        th = np.asarray(theta, dtype=float)
        return -norm * np.sin(th) * assoc_legendre_deriv(L, M, np.cos(th))

    # a compact axis's rule ignores its scale
    return FactorFunction(evaluate, derivative, spec=make_spherical().coords[1], scale=1.0)


@lru_cache(maxsize=32)
def _stacked(parts: tuple[FactorFunction, ...]) -> FactorFunction:
    # k members' factors on one coordinate as one: its tables stack theirs, and a call gives part i
    # row i of (k, n) nodes, and every part the same nodes of one dimension or none; kept per tuple
    # of parts, so a repeated family reads the stacked tables and rule it built before.  A rule of
    # k rows is of one kind: every part names its peak, or none does
    peaks = [f.peak for f in parts]
    if len({peak is None for peak in peaks}) != 1:
        raise ConfigurationError("a stack's parts must all name a peak, or none of them")

    def rows(fns):
        return lambda q: np.stack([f(x) for f, x in zip(fns, q if np.ndim(q) == 2 else [q] * len(fns), strict=True)])

    evaluate, derivative = rows([f.evaluate for f in parts]), rows([f.derivative for f in parts])
    return FactorFunction(evaluate, derivative, parts=parts, spec=parts[0].spec, scale=tuple(f.scale for f in parts),
                          peak=None if peaks[0] is None else tuple(zip(*peaks)))


@lru_cache(maxsize=256)
def _phi_factor(M: int) -> FactorFunction:
    norm = 1.0 / math.sqrt(2.0 * math.pi)

    def evaluate(phi):
        return norm * np.exp(1j * M * np.asarray(phi, dtype=float))

    def derivative(phi):
        return 1j * M * evaluate(phi)

    return FactorFunction(evaluate, derivative, spec=make_spherical().coords[2], scale=1.0)


def _hydrogen_factors(qn: QuantumNumbers) -> tuple[FactorFunction, ...]:
    # the level's cached radial, theta and phi factors; qn has checked (n, L, M), so the caches
    # are read without another check
    L, M = int(qn.L), int(qn.M)
    return _hydrogen_radial(int(qn.n), L), _theta_factor(L, M), _phi_factor(M)


def hydrogen_state(qn: QuantumNumbers) -> SeparableState:
    """Bound hydrogen eigenstate (n, L, M) on the spherical system, r in units of a0.

    All three factors are individually unit-norm against their coordinate
    weights, so the product is normalized with no cross terms.  The factors
    are shared with every other state of the same (n, L), (L, M) or M.
    """
    return SeparableState(_hydrogen_factors(qn), make_spherical())


_SINE_KS, _FOURIER_MS = np.arange(1.0, 5.0), np.arange(-2.0, 3.0)  # the trial harmonics
_FOURIER_SLOPES = 1j * _FOURIER_MS  # d/dphi e^(i m phi) = (i m) e^(i m phi)
# per topology, the uniforms a trial factor draws, in a lone state's order, as (low, high - low)
# columns: Generator.uniform(low, high) gives low + (high - low) u, bit for bit.  A linear factor
# draws its scale (0.8 + 0.4 u), its center (line only) and 3 coefficients; an angular one its harmonics'
_TRIAL_DRAWS = {topology: np.array(draws).T for topology, draws in {
    "line": [(0.8, 0.4), (-0.5, 0.5 - -0.5)] + [(0.4, 1.0 - 0.4)] * 3,
    "half-line": [(0.8, 0.4)] + [(0.4, 1.0 - 0.4)] * 3,
    "compact-periodic": [(0.2, 1.0 - 0.2)] * 5,
    "compact-nonperiodic": [(0.2, 1.0 - 0.2)] * 4,
}.items()}


def _poly_gaussian(width, center, c0, c1, c2, inv=1.0, *, spec, scale) -> FactorFunction:
    # (c0 + c1 u + c2 u^2) e^(-u^2/2), u = (q - center)/width, times the
    # normalisation constant inv; each parameter a float, or a (k, 1) column.
    # Its norms and momentum sums are polynomials of degree <= 7 in u times e^(-u^2),
    # so it tabulates on the hermite rule at its own width and centre
    peak = (width, center) if np.ndim(width) == 0 else (tuple(width[:, 0]), tuple(center[:, 0]))

    def evaluate(q):
        u = (np.asarray(q, dtype=float) - center) / width
        return inv * ((c0 + c1 * u + c2 * u * u) * np.exp(-0.5 * u * u))

    def derivative(q):
        u = (np.asarray(q, dtype=float) - center) / width
        val = ((c1 + 2.0 * c2 * u) - u * (c0 + c1 * u + c2 * u * u)) / width
        return inv * (val * np.exp(-0.5 * u * u))

    return FactorFunction(evaluate, derivative, spec=spec, scale=scale, peak=peak)


def _harmonic_sum(coeffs, inv, spec, scale, ks, slopes, basis, slope_basis) -> FactorFunction:
    # sum of c_j basis(k_j q), with derivative sum of slope_j c_j slope_basis(k_j q);
    # coeffs (m,), or (k, 1, m) for k members
    def evaluate(q):
        return inv * np.sum(coeffs * basis(np.multiply.outer(np.asarray(q, dtype=float), ks)), axis=-1)

    def derivative(q):
        return inv * np.sum(slopes * coeffs * slope_basis(np.multiply.outer(np.asarray(q, dtype=float), ks)), axis=-1)

    return FactorFunction(evaluate, derivative, spec=spec, scale=scale)


def _sine_sum(coeffs, inv=1.0, *, spec, scale) -> FactorFunction:
    # sum of c_k sin(k theta), k = 1..4: vanishes at both poles, so the polar
    # drift stays integrable
    return _harmonic_sum(coeffs, inv, spec, scale, _SINE_KS, _SINE_KS, np.sin, np.cos)


def _fourier_sum(cs, inv=1.0, *, spec, scale) -> FactorFunction:
    # sum of c_m e^(i m phi), m = -2..2, the c_m already divided by sqrt(2 pi)
    phase = lambda x: np.exp(1j * x)
    return _harmonic_sum(cs, inv, spec, scale, _FOURIER_MS, _FOURIER_SLOPES, phase, phase)


def hydrogen_family(qns: Sequence[QuantumNumbers]) -> SeparableState:
    """The hydrogen levels ``qns`` as one family on the spherical system: each axis's
    factor stacks the levels' cached factors, those of ``hydrogen_state``, and reads
    their tables.  The stacks of the last 32 tuples of level factors are kept, so a
    repeated family stacks nothing.  Every member's numbers are those of the state alone."""
    if not qns or not all(isinstance(qn, QuantumNumbers) for qn in qns):
        raise DomainError("a hydrogen family needs one or more QuantumNumbers")
    axes = zip(*[_hydrogen_factors(qn) for qn in qns])
    return SeparableState(tuple(_stacked(parts) for parts in axes), make_spherical())


def trial_family(system: CoordinateSystem, seeds: Sequence[int]) -> SeparableState:
    """The random trial states of one or more ``seeds`` on ``system``, lengths in
    units of a0, as one family: each axis's raw profile is evaluated once for all
    members, on (k, 1) parameter columns, on the rule its factor tabulates on at the
    default orders, to fold each member's normalisation constant, against the factor's
    own weight, into its factor: a linear factor's hermite rule at its own width and
    centre, exact for |f|^2, and an angular one's mapped rule.  k seeds'
    factors carry the tuple of the members' radial scales; one seed gives
    ``random_bound_trial``'s lone state, on Python floats at its radial scale."""
    if len(seeds) == 0 or not all(is_integer(seed) and seed >= 0 for seed in seeds):
        raise DomainError(f"a trial family needs one or more non-negative integer seeds, got {seeds!r}")
    # one generator call per member gives all its uniforms u, in a lone state's order
    bounds = [_TRIAL_DRAWS[spec.topology] for spec in system.coords]
    low, span = np.concatenate(bounds, axis=1)
    drawn = low + span * np.array([np.random.default_rng(seed).random(len(low)) for seed in seeds])
    one = len(seeds) == 1
    radial = [1.0] * len(seeds)  # each member's radial scale: 1 or its largest linear width
    axes = []  # per coordinate: builder, the family's parameters, 1 / norms
    start = 0
    for spec, axis_bounds in zip(system.coords, bounds):
        block = slice(start, start + axis_bounds.shape[1])
        start = block.stop
        if spec.topology in ("line", "half-line"):
            rows = drawn[:, block].tolist()  # Python floats, as a lone state's
            if spec.topology == "half-line":  # centered at 0, so no center is drawn
                rows = [[row[0], 0.0, *row[1:]] for row in rows]
            radial = [max(r, row[0]) for r, row in zip(radial, rows)]
            builder, params = _poly_gaussian, rows[0] if one else tuple(np.array(rows).T[:, :, None])
        else:
            periodic = spec.topology == "compact-periodic"
            coeffs = drawn[:, block] / math.sqrt(2.0 * math.pi) if periodic else drawn[:, block]
            params = (coeffs[0],) if one else (coeffs[:, None],)  # k rows: (k, 1, m)
            builder = _fourier_sum if periodic else _sine_sum
        raw = builder(*params, spec=spec, scale=1.0)  # its rule, hermite or compact, reads no scale
        norm_sq = coordinate_integral(raw.rule(DEFAULT_CONFIG), lambda q: np.abs(raw.evaluate(q)) ** 2)
        inv = [1.0 / math.sqrt(n) for n in ([norm_sq.real] if one else norm_sq.tolist())]
        axes.append((builder, spec, params, inv[0] if one else np.array(inv)[:, None]))
    scale = radial[0] if one else tuple(radial)
    return SeparableState(tuple(b(*params, inv, spec=s, scale=scale) for b, s, params, inv in axes), system)


def random_bound_trial(system: CoordinateSystem, seed: int) -> SeparableState:
    """Random admissible trial state on ``system``, reproducible from ``seed``.

    Linear axes get polynomial-times-Gaussian profiles, the polar angle a
    truncated sine sum (vanishing at the poles), the azimuth a short Fourier
    sum.  Each factor is normalized by quadrature against its own weight, on the rule it tabulates on.
    It is ``trial_family(system, [seed])``: one seed gives factors on Python floats.
    """
    return trial_family(system, (seed,))


def apply_phase_twist(state: SeparableState, axis: int, wavenumber: float) -> SeparableState:
    """Multiply the factor on a line axis by e^(i k q), k in units of 1/a0.

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
    factors[axis] = base.derived(evaluate, derivative)
    return replace(state, factors=tuple(factors))


def state_overlap(
    a: SeparableState, b: SeparableState, config: QuadratureConfig = DEFAULT_CONFIG
) -> complex:
    """Inner product <a|b> against the volume weight: each axis on the topology's rule at the
    larger scale, from the table of a factor that sits on it, and any other factor, one at a peak
    too, evaluated on its nodes: 8 hermite nodes are not exact for a product with a differently
    placed or twisted factor.  A family is refused."""
    if a.is_family or b.is_family:
        raise ConfigurationError("overlap takes two states, not a family of them")
    if a.system != b.system:  # name and coordinates: each axis reads both factors on one rule
        raise ConfigurationError(
            f"overlap needs matching systems, got {a.system.name!r} and {b.system.name!r}"
        )
    pairs = []
    for fa, fb in zip(a.factors, b.factors):
        scale = max(fa.scale, fb.scale)
        rule = axis_rule(fa.spec, config.order_for(fa.spec), scale)
        va, vb = [f.table(config)[0] if f.peak is None and f.scale == scale else f.evaluate(rule.nodes)
                  for f in (fa, fb)]
        pairs.append(contract_rows(rule, np.conj(va) * vb))
    return complex(axes_product(pairs)[0])
