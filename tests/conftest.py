"""Shared test oracles."""

import math

import numpy as np
import pytest

from curvimom.specfun import assoc_legendre


def _spherical_harmonic(L, M, theta, phi):
    # Y_L^M = sqrt((2L+1)/(4 pi) (L-M)!/(L+M)!) P_L^M(cos theta) e^(i M phi),
    # physics convention: the Condon-Shortley phase enters through P_L^M only
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    norm = math.sqrt((2 * L + 1) / (4.0 * math.pi)) * math.exp(
        0.5 * (math.lgamma(L - M + 1) - math.lgamma(L + M + 1))
    )
    out = norm * assoc_legendre(L, M, np.cos(th)) * np.exp(1j * M * ph)
    if np.ndim(theta) == 0 and np.ndim(phi) == 0:
        return complex(out)
    return out


@pytest.fixture
def spherical_harmonic():
    """Spherical harmonic Y_L^M(theta, phi) built on the package's P_L^M;
    a complex scalar for scalar angles."""
    return _spherical_harmonic
