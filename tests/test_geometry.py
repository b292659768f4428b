"""Coordinate systems, weights, measure factors and drifts."""

import math

import numpy as np
import pytest

from curvimom.errors import ConfigurationError, SingularityError
from curvimom.geometry import (
    WEIGHTS,
    CoordinateSpec,
    CoordinateSystem,
    make_cartesian,
    make_cylindrical,
    make_plane_polar,
    make_spherical,
    measure_factor,
    preset_systems,
)


def test_weight_registry_values():
    q = np.linspace(0.3, 2.5, 9)
    assert np.all(WEIGHTS["one"].value(q) == 1.0)
    assert np.all(WEIGHTS["q"].value(q) == q)
    assert np.all(WEIGHTS["q^2"].value(q) == q * q)
    assert np.allclose(WEIGHTS["sin"].value(q), np.sin(q))
    assert np.all(WEIGHTS["one"].deriv(q) == 0.0)
    assert np.all(WEIGHTS["q"].deriv(q) == 1.0)
    assert np.all(WEIGHTS["q^2"].deriv(q) == 2.0 * q)
    assert np.allclose(WEIGHTS["sin"].deriv(q), np.cos(q))


def test_preset_shapes():
    systems = preset_systems()
    assert sorted(systems) == ["cartesian", "cylindrical", "plane-polar", "spherical"]
    sph = systems["spherical"]
    assert [s.name for s in sph.coords] == ["r", "theta", "phi"]
    assert [s.topology for s in sph.coords] == [
        "half-line",
        "compact-nonperiodic",
        "compact-periodic",
    ]
    assert [s.kind for s in sph.coords] == ["linear", "angular", "angular"]
    assert [s.weight.ident for s in sph.coords] == ["q^2", "sin", "one"]
    cart = systems["cartesian"]
    assert all(s.topology == "line" for s in cart.coords)
    assert all(s.weight.ident == "one" for s in cart.coords)
    cyl = systems["cylindrical"]
    assert [s.weight.ident for s in cyl.coords] == ["q", "one", "one"]
    pol = systems["plane-polar"]
    assert pol.dim == 2
    assert [s.weight.ident for s in pol.coords] == ["q", "one"]


def test_drift_closed_forms():
    sph = make_spherical()
    r = np.linspace(0.2, 5.0, 11)
    mf_r = measure_factor(sph.coords[0])
    assert np.allclose(mf_r.drift(r), 1.0 / r, rtol=1e-14)
    theta = np.linspace(0.1, math.pi - 0.1, 11)
    mf_t = measure_factor(sph.coords[1])
    assert np.allclose(mf_t.drift(theta), 0.5 / np.tan(theta), rtol=1e-13)
    mf_p = measure_factor(sph.coords[2])
    assert np.all(mf_p.drift(np.linspace(0.1, 6.0, 5)) == 0.0)

    rho = np.linspace(0.2, 4.0, 7)
    mf_rho = measure_factor(make_cylindrical().coords[0])
    assert np.allclose(mf_rho.drift(rho), 0.5 / rho, rtol=1e-14)
    mf_pol = measure_factor(make_plane_polar().coords[0])
    assert np.allclose(mf_pol.drift(rho), 0.5 / rho, rtol=1e-14)
    for spec in make_cartesian().coords:
        assert np.all(measure_factor(spec).drift(np.linspace(-3, 3, 7)) == 0.0)


def test_drift_matches_log_derivative_of_measure_factor():
    # g = d/dq ln f, checked by central difference at interior points
    h = 1e-6
    cases = [
        (make_spherical().coords[0], np.linspace(0.5, 4.0, 9)),
        (make_spherical().coords[1], np.linspace(0.3, math.pi - 0.3, 9)),
        (make_cylindrical().coords[0], np.linspace(0.5, 4.0, 9)),
    ]
    for spec, q in cases:
        mf = measure_factor(spec)
        fd = (np.log(mf.value(q + h)) - np.log(mf.value(q - h))) / (2.0 * h)
        assert np.max(np.abs(mf.drift(q) - fd)) <= 1e-7 * np.max(np.abs(fd))


def test_drift_singular_where_weight_vanishes():
    sph = make_spherical()
    with pytest.raises(SingularityError):
        measure_factor(sph.coords[0]).drift(0.0)
    with pytest.raises(SingularityError):
        measure_factor(sph.coords[1]).drift(np.array([0.5, 0.0]))


def test_coordinate_spec_validation():
    with pytest.raises(ConfigurationError):
        CoordinateSpec("bad", 1.0, 0.0, "line", WEIGHTS["one"], "linear")
    with pytest.raises(ConfigurationError):
        CoordinateSpec("bad", 0.0, 1.0, "circle", WEIGHTS["one"], "linear")
    with pytest.raises(ConfigurationError):
        CoordinateSpec("bad", 0.0, 1.0, "line", WEIGHTS["one"], "diagonal")


def test_systems_are_value_like():
    a = make_spherical()
    b = make_spherical()
    assert a == b
    assert isinstance(a, CoordinateSystem)
