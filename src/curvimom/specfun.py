"""Associated Legendre and Laguerre functions and spherical harmonics.

Everything here is evaluated by stable recurrences, not by closed-form
factorial expressions: factorial ratios go through ``math.lgamma`` so that
orders up to L = 50 stay finite, and the Condon-Shortley phase (-1)^M is
carried exactly once, inside ``assoc_legendre`` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "QuantumNumbers",
    "assoc_legendre",
    "assoc_legendre_deriv",
    "legendre_parity",
    "assoc_laguerre",
    "assoc_laguerre_deriv",
    "spherical_harmonic",
]


@dataclass(frozen=True)
class QuantumNumbers:
    """Hydrogenic quantum numbers (n, L, M) with admissibility checks."""

    n: int
    L: int
    M: int

    def __post_init__(self) -> None:
        for label, value in (("n", self.n), ("L", self.L), ("M", self.M)):
            if not isinstance(value, (int, np.integer)):
                raise DomainError(f"{label} must be an integer, got {value!r}")
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.L <= self.n - 1:
            raise DomainError(f"L must satisfy 0 <= L <= n-1, got L={self.L}, n={self.n}")
        if abs(self.M) > self.L:
            raise DomainError(f"M must satisfy |M| <= L, got M={self.M}, L={self.L}")


def _require_degree_order(L: int, M: int) -> None:
    if not isinstance(L, (int, np.integer)) or not isinstance(M, (int, np.integer)):
        raise DomainError(f"degree and order must be integers, got L={L!r}, M={M!r}")
    if L < 0:
        raise DomainError(f"degree L must be >= 0, got {L}")
    if abs(M) > L:
        raise DomainError(f"order must satisfy |M| <= L, got M={M}, L={L}")


def _factorial_ratio(num: int, den: int) -> float:
    # num! / den! in log space; safe for L up to 50 and beyond
    return math.exp(math.lgamma(num + 1) - math.lgamma(den + 1))


def _as_float_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _legendre_climb(L: int, M: int, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (P_L^M, P_{L-1}^M) from one climb in degree at |M|; the second is
    # zero when |M| > L-1, and negative orders are scaled after the climb
    m = abs(M)
    # P_m^m, built as a product so intermediates never overflow
    p_curr, p_prev = np.ones_like(xi), np.zeros_like(xi)
    if m > 0:
        s = np.sqrt((1.0 - xi) * (1.0 + xi))
        for k in range(1, m + 1):
            p_curr = p_curr * (-(2 * k - 1)) * s
    # the first step subtracts an exact zero, so it is (2m+1) x P_m^m to the bit
    for degree in range(m + 1, L + 1):
        p_curr, p_prev = (
            ((2 * degree - 1) * xi * p_curr - (degree + m - 1) * p_prev) / (degree - m),
            p_curr,
        )
    if M < 0:
        p_curr = (-1) ** m * _factorial_ratio(L - m, L + m) * p_curr
        if L > m:
            p_prev = (-1) ** m * _factorial_ratio(L - 1 - m, L - 1 + m) * p_prev
    return p_curr, p_prev


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
    out = _legendre_climb(L, M, xi)[0]
    return float(out) if scalar else out


def assoc_legendre_deriv(L: int, M: int, x):
    """Derivative dP_L^M/dx via the degree-lowering recurrence.

    Uses (x^2 - 1) dP_L^M/dx = L x P_L^M - (L + M) P_{L-1}^M, the standard
    indexing (degree lowered, order kept), with both functions from one
    climb.  The endpoint factor (x^2 - 1) makes |x| = 1 a genuine
    singularity of the formula, so the open interval is enforced.

    Raises:
        DomainError: for invalid (L, M) or |x| >= 1.
    """
    _require_degree_order(L, M)
    xi, scalar = _as_float_array(x)
    if np.any(np.abs(xi) >= 1.0):
        raise DomainError("argument of assoc_legendre_deriv must lie in (-1, 1)")
    p_l, p_lm1 = _legendre_climb(L, M, xi)
    out = (L * xi * p_l - (L + M) * p_lm1) / (xi * xi - 1.0)
    return float(out) if scalar else out


def legendre_parity(L: int, M: int, x):
    """Both sides of the parity identity P_L^M(x) = (-1)^(L+M) P_L^M(-x).

    Returns:
        Tuple (lhs, rhs); equality of the two is the caller's check.
    """
    xi, scalar = _as_float_array(x)
    lhs = assoc_legendre(L, M, xi)
    rhs = (-1) ** (L + M) * assoc_legendre(L, M, -xi)
    if scalar:
        return float(lhs), float(rhs)
    return lhs, rhs


def assoc_laguerre(k: int, a: int, x):
    """Generalized Laguerre polynomial L_k^a(x), modern normalization.

    L_0^a = 1, L_1^a = 1 + a - x, then
    (k+1) L_{k+1}^a = (2k + 1 + a - x) L_k^a - (k + a) L_{k-1}^a.

    Raises:
        DomainError: if k or a is negative or non-integer.
    """
    if not isinstance(k, (int, np.integer)) or not isinstance(a, (int, np.integer)):
        raise DomainError(f"Laguerre indices must be integers, got k={k!r}, a={a!r}")
    if k < 0 or a < 0:
        raise DomainError(f"Laguerre indices must be >= 0, got k={k}, a={a}")
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
    """Derivative d/dx L_k^a(x) = -L_{k-1}^{a+1}(x) (zero for k = 0)."""
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise DomainError(f"Laguerre index k must be an integer >= 0, got {k!r}")
    xi, scalar = _as_float_array(x)
    if k == 0:
        out = np.zeros_like(xi)
        return float(out) if scalar else out
    out = -assoc_laguerre(k - 1, a + 1, xi)
    return float(out) if scalar else out


def spherical_harmonic(L: int, M: int, theta, phi):
    """Spherical harmonic Y_L^M(theta, phi), physics convention.

    Y_L^M = sqrt((2L+1)/(4 pi) (L-M)!/(L+M)!) P_L^M(cos theta) e^(i M phi);
    the Condon-Shortley phase enters through P_L^M only, so no extra
    (-1)^M appears here.

    Returns:
        complex scalar or complex ndarray (broadcast of theta and phi).
    """
    _require_degree_order(L, M)
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    norm = math.sqrt((2 * L + 1) / (4.0 * math.pi)) * math.exp(
        0.5 * (math.lgamma(L - M + 1) - math.lgamma(L + M + 1))
    )
    out = norm * assoc_legendre(L, M, np.cos(th)) * np.exp(1j * M * ph)
    if np.ndim(theta) == 0 and np.ndim(phi) == 0:
        return complex(out)
    return out
