"""Coordinate systems, weights, measure factors and drifts."""

import itertools
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



def _embedding(sp, name):
    # each preset's map x(q) into Cartesian space, coordinates in the preset's axis order
    x, y, z, r, theta, phi, rho = sp.symbols("x y z r theta phi rho", real=True)
    return {
        "cartesian": ((x, y, z), (x, y, z)),
        "spherical": ((r, theta, phi),
                      (r * sp.sin(theta) * sp.cos(phi), r * sp.sin(theta) * sp.sin(phi), r * sp.cos(theta))),
        "cylindrical": ((rho, phi, z), (rho * sp.cos(phi), rho * sp.sin(phi), z)),
        "plane-polar": ((r, phi), (r * sp.cos(phi), r * sp.sin(phi))),
    }[name]


# interior sample points of each topology's domain (compact ones as fractions of it)
_SAMPLES = {"line": (-1.3, 0.4), "half-line": (0.35, 2.7), "compact-periodic": (0.23, 0.71),
            "compact-nonperiodic": (0.23, 0.71)}


@pytest.mark.parametrize("name", sorted(preset_systems()))
def test_weights_and_drifts_follow_from_the_embedding(name):
    # the paper reads each p_q from the metric of the map x(q), independently of WEIGHTS:
    # g = J^T J is diagonal, ln sqrt(g) has no mixed second derivatives, so sqrt(g) is a
    # product of one factor per coordinate, and that factor is the preset's weight w_i,
    # with drift w_i'/(2 w_i) = (1/2) d/dq_i ln sqrt(g)
    sp = pytest.importorskip("sympy")
    system = preset_systems()[name]
    q, x = _embedding(sp, name)
    assert [spec.name for spec in system.coords] == [str(qi) for qi in q]
    jacobian = sp.Matrix(x).jacobian(q)
    metric = sp.simplify(jacobian.T * jacobian)
    assert metric.is_diagonal(), metric
    log_root_g = sum(sp.log(metric[i, i]) for i in range(len(q))) / 2
    for i, j in itertools.combinations(range(len(q)), 2):
        assert sp.simplify(sp.diff(log_root_g, q[i], q[j])) == 0, (q[i], q[j])
    root_g = sp.lambdify(q, sp.sqrt(sp.prod(metric[i, i] for i in range(len(q)))), "math")
    drifts = [sp.lambdify(q, sp.diff(log_root_g, qi) / 2, "math") for qi in q]
    samples = [
        [s.lower + t * (s.upper - s.lower) if math.isfinite(s.upper - s.lower) else t for t in _SAMPLES[s.topology]]
        for s in system.coords
    ]
    for point in itertools.product(*samples):
        weights = [float(spec.weight.value(qi)) for spec, qi in zip(system.coords, point)]
        assert math.prod(weights) == pytest.approx(root_g(*point), rel=1e-14), point
        for spec, qi, drift in zip(system.coords, point, drifts):
            assert float(measure_factor(spec).drift(qi)) == pytest.approx(drift(*point), rel=1e-13, abs=1e-15)

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
        CoordinateSpec("bad", -math.inf, math.inf, "line", WEIGHTS["one"], "diagonal")
    # each topology's rule covers one domain, and a compact one any finite interval: a line
    # rule on (0, 1) would integrate over all of R, a half-line one on (1, inf) from 0
    for lower, upper, topology in (
        (0.0, 1.0, "line"),
        (0.0, math.inf, "line"),
        (1.0, math.inf, "half-line"),
        (-math.inf, math.inf, "half-line"),
        (0.0, math.inf, "compact-nonperiodic"),
        (-math.inf, 0.0, "compact-nonperiodic"),
    ):
        with pytest.raises(ConfigurationError, match="must span"):
            CoordinateSpec("bad", lower, upper, topology, WEIGHTS["one"], "linear")
    assert CoordinateSpec("ok", -2.0, 3.5, "compact-nonperiodic", WEIGHTS["one"], "linear").upper == 3.5


def test_systems_are_value_like():
    a = make_spherical()
    b = make_spherical()
    assert a == b
    assert isinstance(a, CoordinateSystem)
