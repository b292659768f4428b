"""Orthogonal coordinate systems and their measure factors.

A coordinate q_i carries a weight w_i(q_i) so that the volume element
factorizes as sqrt(|g|) = prod_i w_i (positive orthant convention).  The
measure factor of one coordinate is f_i = sqrt(w_i); the drift it induces
in the canonical momentum is g_i = f_i'/f_i = w_i'/(2 w_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, Literal

import numpy as np

from .errors import ConfigurationError, SingularityError

__all__ = [
    "Weight",
    "WEIGHTS",
    "CoordinateSpec",
    "CoordinateSystem",
    "MeasureFactor",
    "measure_factor",
    "make_cartesian",
    "make_spherical",
    "make_cylindrical",
    "make_plane_polar",
    "preset_systems",
]

Topology = Literal["line", "half-line", "compact-periodic", "compact-nonperiodic"]
Kind = Literal["linear", "angular"]


@dataclass(frozen=True)
class Weight:
    """A coordinate weight w(q) with its derivative."""

    ident: str
    value: Callable
    deriv: Callable


def _w_one(q):
    return q * 0.0 + 1.0


def _w_zero(q):
    return q * 0.0


def _w_q(q):
    return q * 1.0


def _w_q_squared(q):
    return q * q


def _w_two_q(q):
    return 2.0 * q


def _w_sin(q):
    return np.sin(q)


def _w_cos(q):
    return np.cos(q)


WEIGHTS: dict[str, Weight] = {
    "one": Weight("one", _w_one, _w_zero),
    "q": Weight("q", _w_q, _w_one),
    "q^2": Weight("q^2", _w_q_squared, _w_two_q),
    "sin": Weight("sin", _w_sin, _w_cos),
}


@dataclass(frozen=True)
class CoordinateSpec:
    """One orthogonal coordinate: domain, topology, weight and kind."""

    name: str
    lower: float
    upper: float
    topology: Topology
    weight: Weight
    kind: Kind

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise ConfigurationError(
                f"coordinate {self.name!r} needs lower < upper, got "
                f"({self.lower}, {self.upper})"
            )
        if self.topology not in ("line", "half-line", "compact-periodic", "compact-nonperiodic"):
            raise ConfigurationError(f"unknown topology {self.topology!r}")
        if self.kind not in ("linear", "angular"):
            raise ConfigurationError(f"unknown coordinate kind {self.kind!r}")


@dataclass(frozen=True)
class CoordinateSystem:
    """An ordered tuple of coordinates making up an orthogonal system."""

    name: str
    coords: tuple[CoordinateSpec, ...]

    @property
    def dim(self) -> int:
        return len(self.coords)


class MeasureFactor:
    """Measure factor f = sqrt(w) of one coordinate and the drift it induces."""

    def __init__(self, spec: CoordinateSpec):
        self.spec = spec
        self._w = spec.weight
        # finite ends where w vanishes in exact arithmetic (r = 0, theta = 0),
        # or one float step from it (sin(pi) = 1.2e-16): |w| <= |w' spacing(end)|
        ends = [end for end in (spec.lower, spec.upper) if math.isfinite(end)]
        self.zero_ends = tuple(e for e in ends if abs(self._w.value(e)) <= abs(self._w.deriv(e) * np.spacing(e)))

    def value(self, q):
        """f(q) = sqrt(w(q))."""
        return np.sqrt(self._w.value(q))

    def drift(self, q):
        """g(q) = f'/f = w'/(2w); raises where the weight vanishes."""
        w = self._w.value(q)
        zero = np.equal(w, 0.0)
        for end in self.zero_ends:
            zero = zero | np.equal(q, end)
        if zero.any():
            raise SingularityError(
                f"drift of coordinate {self.spec.name!r} is singular where the weight vanishes"
            )
        return self._w.deriv(q) / (2.0 * w)


@lru_cache(maxsize=64)
def measure_factor(spec: CoordinateSpec) -> MeasureFactor:
    """Measure factor object for one coordinate, shared per spec."""
    return MeasureFactor(spec)


@cache
def make_cartesian() -> CoordinateSystem:
    """Cartesian (x, y, z): unit weights, zero drift on every axis."""
    axis = lambda nm: CoordinateSpec(nm, -math.inf, math.inf, "line", WEIGHTS["one"], "linear")
    return CoordinateSystem("cartesian", (axis("x"), axis("y"), axis("z")))


@cache
def make_spherical() -> CoordinateSystem:
    """Spherical (r, theta, phi): weights r^2, sin(theta), 1."""
    return CoordinateSystem(
        "spherical",
        (
            CoordinateSpec("r", 0.0, math.inf, "half-line", WEIGHTS["q^2"], "linear"),
            CoordinateSpec("theta", 0.0, math.pi, "compact-nonperiodic", WEIGHTS["sin"], "angular"),
            CoordinateSpec("phi", 0.0, 2.0 * math.pi, "compact-periodic", WEIGHTS["one"], "angular"),
        ),
    )


@cache
def make_cylindrical() -> CoordinateSystem:
    """Cylindrical (rho, phi, z): weights rho, 1, 1."""
    return CoordinateSystem(
        "cylindrical",
        (
            CoordinateSpec("rho", 0.0, math.inf, "half-line", WEIGHTS["q"], "linear"),
            CoordinateSpec("phi", 0.0, 2.0 * math.pi, "compact-periodic", WEIGHTS["one"], "angular"),
            CoordinateSpec("z", -math.inf, math.inf, "line", WEIGHTS["one"], "linear"),
        ),
    )


@cache
def make_plane_polar() -> CoordinateSystem:
    """Plane polar (r, phi): weights r, 1."""
    return CoordinateSystem(
        "plane-polar",
        (
            CoordinateSpec("r", 0.0, math.inf, "half-line", WEIGHTS["q"], "linear"),
            CoordinateSpec("phi", 0.0, 2.0 * math.pi, "compact-periodic", WEIGHTS["one"], "angular"),
        ),
    )


def preset_systems() -> dict[str, CoordinateSystem]:
    """All four built-in systems, keyed by name, in a new dict; each
    ``make_*`` builds its frozen system once and then returns that one."""
    systems = (make_cartesian(), make_spherical(), make_cylindrical(), make_plane_polar())
    return {s.name: s for s in systems}
