"""Associated Legendre and Laguerre functions.

Everything here is evaluated by stable recurrences, not by closed-form
factorial expressions: factorial ratios go through ``math.lgamma`` so that
orders up to L = 50 stay finite, and the Condon-Shortley phase (-1)^M is
carried exactly once, inside ``assoc_legendre`` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, is_integer

__all__ = [
    "QuantumNumbers",
    "assoc_legendre",
    "assoc_legendre_deriv",
    "assoc_laguerre",
    "assoc_laguerre_deriv",
]


@dataclass(frozen=True)
class QuantumNumbers:
    """Hydrogenic quantum numbers (n, L, M) with admissibility checks."""

    n: int
    L: int
    M: int

    def __post_init__(self) -> None:
        for label, value in (("n", self.n), ("L", self.L), ("M", self.M)):
            if not is_integer(value):
                raise DomainError(f"{label} must be an integer, got {value!r}")
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.L <= self.n - 1:
            raise DomainError(f"L must satisfy 0 <= L <= n-1, got L={self.L}, n={self.n}")
        if abs(self.M) > self.L:
            raise DomainError(f"M must satisfy |M| <= L, got M={self.M}, L={self.L}")


def _require_degree_order(L: int, M: int) -> None:
    if not is_integer(L) or not is_integer(M):
        raise DomainError(f"degree and order must be integers, got L={L!r}, M={M!r}")
    if L < 0:
        raise DomainError(f"degree L must be >= 0, got {L}")
    if abs(M) > L:
        raise DomainError(f"order must satisfy |M| <= L, got M={M}, L={L}")


def _require_laguerre_indices(k: int, a: int) -> None:
    if not is_integer(k) or not is_integer(a):
        raise DomainError(f"Laguerre indices must be integers, got k={k!r}, a={a!r}")
    if k < 0 or a < 0:
        raise DomainError(f"Laguerre indices must be >= 0, got k={k}, a={a}")


def _factorial_ratio(num: int, den: int) -> float:
    # num! / den! in log space; safe for L up to 50 and beyond
    return math.exp(math.lgamma(num + 1) - math.lgamma(den + 1))


def _as_float_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _legendre_climb(L: int, M: int | np.ndarray, xi: np.ndarray) -> np.ndarray:
    # P_d^M for every degree d <= L, one row per degree and zero below |M|, for an int M or an int
    # array of orders broadcasting against xi.  A lone order climbs in degree from its seed P_m^m;
    # orders climbed together keep the seed or zero where d <= m (dividing there by 1, not d - m),
    # so each order's rows are its lone climb's bits
    lone, m = not isinstance(M, np.ndarray), abs(M)
    low, top, least, shape = (m, m, M, xi.shape) if lone else (
        m.min(), m.max(), M.min(), np.broadcast_shapes(m.shape, xi.shape))
    rows = np.zeros((L + 1,) + shape)
    # P_d^d for d <= top, built as a product so intermediates never overflow
    seed, s = 1.0, np.sqrt((1.0 - xi) * (1.0 + xi)) if top else None
    for d in range(top + 1):
        seed = seed * (-(2 * d - 1)) * s if d else seed
        if d >= low:
            rows[d] = seed if lone else np.where(m == d, seed, 0.0)
    # the first step reads a zero row (below |M|, or at m = 0 row L, not yet reached),
    # so it is (2m+1) x P_m^m to the bit
    for d in range(low + 1, L + 1):
        step = (2 * d - 1) * xi * rows[d - 1] - (d + m - 1) * rows[d - 2]
        rows[d] = step / (d - m) if lone else np.where(d > m, step / np.maximum(d - m, 1), rows[d])
    if least < 0:  # P_d^-m = (-1)^m (d-m)!/(d+m)! P_d^m for d >= m, in row -m of scales, which M indexes
        scales = np.ones((2 * top + 1, L + 1))
        for o in range(max(low, 1), top + 1):
            scales[-o, o:] = [(-1) ** o * _factorial_ratio(d - o, d + o) for d in range(o, L + 1)]
        # on the rows from |M|'s least, with the degree axis moved last
        (rows[low:].T if lone else np.moveaxis(rows[low:], 0, -1))[...] *= scales[M][..., low:]
    return rows


def _degree_lowering(rows: np.ndarray, M: int | np.ndarray, xi: np.ndarray) -> np.ndarray:
    # dP_d^M/dx of every row of a climb, M as the climb's: (x^2 - 1) dP_d^M/dx = d x P_d^M - (d + M) P_{d-1}^M
    d = np.arange(len(rows)).reshape((-1,) + (1,) * (rows.ndim - 1))
    lowered = np.concatenate([np.zeros_like(rows[:1]), rows[:-1]])
    return (d * xi * rows - (d + M) * lowered) / (xi * xi - 1.0)


def assoc_legendre(L: int, M: int, x):
    """Associated Legendre function P_L^M(x) with Condon-Shortley phase.

    Seeds P_M^M = (-1)^M (2M-1)!! (1-x^2)^(M/2) and climbs in degree with
    (L-M) P_L^M = (2L-1) x P_{L-1}^M - (L+M-1) P_{L-2}^M.  Negative orders
    use P_L^{-M} = (-1)^M (L-M)!/(L+M)! P_L^M.

    Args:
        L: degree, integer >= 0.
        M: order, integer with |M| <= L.
        x: argument in [-1, 1]; scalar or array.

    Returns:
        float or ndarray matching the shape of ``x``.

    Raises:
        DomainError: for invalid (L, M) or |x| > 1.
    """
    _require_degree_order(L, M)
    xi, scalar = _as_float_array(x)
    if np.any(np.abs(xi) > 1.0):
        raise DomainError("argument of assoc_legendre must lie in [-1, 1]")
    out = _legendre_climb(L, M, xi)[L]
    return float(out) if scalar else out


def assoc_legendre_deriv(L: int, M: int, x):
    """dP_L^M/dx on (-1, 1), from one climb by the degree-lowering recurrence.

    Uses (x^2 - 1) dP_L^M/dx = L x P_L^M - (L + M) P_{L-1}^M, the standard
    indexing (degree lowered, order kept), with both functions from the
    climb.  The endpoint factor (x^2 - 1) makes |x| = 1 a genuine
    singularity of the formula, so the open interval is enforced.

    Raises:
        DomainError: for invalid (L, M) or |x| >= 1.
    """
    _require_degree_order(L, M)
    xi, scalar = _as_float_array(x)
    if np.any(np.abs(xi) >= 1.0):
        raise DomainError("argument of a Legendre derivative must lie in (-1, 1)")
    out = _degree_lowering(_legendre_climb(L, M, xi), M, xi)[L]
    return float(out) if scalar else out


def assoc_laguerre(k: int, a: int, x):
    """Generalized Laguerre polynomial L_k^a(x), modern normalization.

    L_0^a = 1, L_1^a = 1 + a - x, then
    (k+1) L_{k+1}^a = (2k + 1 + a - x) L_k^a - (k + a) L_{k-1}^a.

    Raises:
        DomainError: if k or a is negative or non-integer.
    """
    _require_laguerre_indices(k, a)
    xi, scalar = _as_float_array(x)

    p_prev = np.ones_like(xi)
    if k == 0:
        return float(p_prev) if scalar else p_prev
    p_curr = 1.0 + a - xi
    for j in range(1, k):
        p_curr, p_prev = (
            ((2 * j + 1 + a - xi) * p_curr - (j + a) * p_prev) / (j + 1),
            p_curr,
        )
    return float(p_curr) if scalar else p_curr


def assoc_laguerre_deriv(k: int, a: int, x):
    """Derivative d/dx L_k^a(x) = -L_{k-1}^{a+1}(x) (zero for k = 0); DomainError as in ``assoc_laguerre``."""
    _require_laguerre_indices(k, a)
    xi, scalar = _as_float_array(x)
    out = -assoc_laguerre(k - 1, a + 1, xi) if k else np.zeros_like(xi)
    return float(out) if scalar else out

