"""Boundary measure density, quadrature, and reproducing property."""

import io
import math

import numpy as np
import pytest

from pluripot import (
    boundary_form_density,
    boundary_point,
    build_quadrature,
    calibrate_quadrature,
    egg_geodesic,
    green_normal_derivative,
    make_domain,
    minkowski_gauge,
    poisson_kernel,
    reproduce_pluriharmonic,
)

from pluripot.boundary_measure import _density
from oracles import (egg_density_mp, montecarlo_surface_measure, polar_chart_nodes_per_latitude,
                     quadrature_csv, total_weight)


def test_density_reference_values():
    ball2 = make_domain("ball2")
    assert abs(boundary_form_density(ball2, [1.0, 0.0]) - 2.0) < 1e-6
    assert abs(boundary_form_density(ball2, [0.6, 0.8]) - 2.0) < 1e-6

    egg4 = make_domain("egg4")
    # Levi determinant vanishes at the weakly pseudoconvex pole
    assert abs(boundary_form_density(egg4, [1.0, 0.0])) < 1e-6
    # and is positive elsewhere
    assert boundary_form_density(egg4, [0.0, 1.0]) > 0.1

    # n = 1: the density convention is identically 1
    assert boundary_form_density(make_domain("ball1"), [1.0]) == 1.0
    assert boundary_form_density(make_domain("half_plane"), [0.0]) == 1.0


def _boundary_points(dom, count, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, 2 * dom.n))
    v = raw[:, :dom.n] + 1j * raw[:, dom.n:]
    return v / minkowski_gauge(dom, v)[:, None]


@pytest.mark.parametrize("label", ["ball2", "egg4", "egg6"])
def test_exact_levi_density_is_the_analytic_density(label):
    # The jet Levi form against build_quadrature's closed form, on 200
    # boundary points, among them the near-degenerate ones of egg6.
    from pluripot.boundary_measure import _egg_density_analytic

    dom = make_domain(label)
    pts = _boundary_points(dom, 200, 11)
    analytic = _egg_density_analytic(dom, pts)
    exact = np.array([boundary_form_density(dom, xi) for xi in pts])
    assert np.all(np.abs(exact - analytic) <= 1e-14 * np.abs(analytic))


@pytest.mark.parametrize("label, m", [("ball2", 2), ("egg4", 4), ("egg6", 6)])
def test_density_uncertainty_covers_the_50_digit_density(label, m):
    dom = make_domain(label)
    for xi in list(_boundary_points(dom, 100, 3)) + [np.array([1.0, 0.0]), np.array([0.0, 1.0])]:
        value, unc = _density(dom, xi)
        assert value == boundary_form_density(dom, xi)
        assert 0.0 < unc < 1e-13 * max(1.0, abs(value))
        assert abs(value - egg_density_mp(m, xi)) <= unc


def test_density_uncertainty_on_every_kind():
    # ball3: 4^2 2! det(I) / 2^2 = 8.  A general_convex egg4 takes the
    # stencil, whose error estimate must cover the exact density.  In
    # one variable the density is exactly 1.
    ball3, xi = make_domain("ball3"), [0.6, 0.0, 0.8j]
    value, unc = _density(ball3, xi)
    assert 0.0 < unc < 1e-13 and abs(value - 8.0) <= unc
    rho = lambda z: np.abs(z[..., 0]) ** 2 + np.abs(z[..., 1]) ** 4 - 1.0
    general = make_domain("general_convex", n=2, rho=rho)
    for xi in _boundary_points(make_domain("egg4"), 20, 5):
        value, unc = _density(general, xi)
        assert 0.0 < unc < 1e-6 * max(1.0, value)
        assert abs(value - egg_density_mp(4, xi)) <= unc
    for dom, xi in ((make_domain("disc"), [1.0]), (make_domain("half_plane"), [0.0]),
                    (make_domain("annulus", r=0.5), [1.0])):
        assert _density(dom, xi) == (1.0, 0.0) and boundary_form_density(dom, xi) == 1.0


def test_density_defining_function_invariance():
    # density normalizes out the choice of defining function
    rho_a = lambda z: np.sum(np.abs(z) ** 2, axis=-1) - 1.0
    rho_b = lambda z: 5.0 * (np.sum(np.abs(z) ** 2, axis=-1) - 1.0)
    dom_a = make_domain("general_convex", n=2, rho=rho_a)
    dom_b = make_domain("general_convex", n=2, rho=rho_b)
    xi = np.array([0.6, 0.8])
    da = boundary_form_density(dom_a, xi)
    db = boundary_form_density(dom_b, xi)
    assert abs(da - db) < 1e-8
    assert abs(da - 2.0) < 1e-5


def test_quadrature_total_ball():
    # total mass of the density form on the unit 3-sphere is 2 pi^2
    quad = build_quadrature(make_domain("ball2"), 64)
    assert abs(total_weight(quad) - 2.0 * math.pi ** 2) < 1e-3 * 2.0 * math.pi ** 2
    assert np.all(quad.weights > 0.0)


@pytest.mark.parametrize("label", ["ball2", "egg4", "egg6"])
@pytest.mark.parametrize("resolution", [4, 8, 16, 24])
def test_quadrature_nodes_are_the_per_latitude_nodes(label, resolution):
    # One broadcast over all latitudes gives each node and weight the
    # bits of building them one latitude block at a time.
    quad = build_quadrature(make_domain(label), resolution)
    pts, weights = polar_chart_nodes_per_latitude(make_domain(label), resolution)
    assert quad.points.tobytes() == pts.tobytes() and quad.points.shape == pts.shape
    assert quad.weights.tobytes() == weights.tobytes()


def test_quadrature_total_disc():
    quad = build_quadrature(make_domain("ball1"), 256)
    assert abs(total_weight(quad) - 2.0 * math.pi) < 1e-8


def test_quadrature_total_egg_vs_montecarlo():
    egg4 = make_domain("egg4")
    quad = build_quadrature(egg4, 32)
    mc = montecarlo_surface_measure(egg4, n_samples=10_000_000)
    assert abs(total_weight(quad) - mc) / mc < 5e-3


def test_reproduce_pluriharmonic_values():
    dom = make_domain("ball2")
    quad = build_quadrature(dom, 48)

    one = lambda pts: np.ones(pts.shape[0])
    assert abs(reproduce_pluriharmonic(dom, one, np.zeros(2), quad) - 1.0) < 1e-6

    re_z1 = lambda pts: pts[:, 0].real
    assert abs(reproduce_pluriharmonic(dom, re_z1, np.zeros(2), quad)) < 1e-8
    assert abs(reproduce_pluriharmonic(dom, re_z1, np.array([0.3, 0.0]), quad) - 0.3) < 1e-6


def test_reproduce_probability_normalization():
    # the kernel-weighted measure has unit mass from every interior point
    dom = make_domain("ball2")
    quad = build_quadrature(dom, 32)
    one = lambda pts: np.ones(pts.shape[0])
    rng = np.random.default_rng(83)
    for _ in range(10):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z = v / np.linalg.norm(v) * rng.uniform(0.1, 0.6)
        assert abs(reproduce_pluriharmonic(dom, one, z, quad) - 1.0) < 1e-3


def test_reproducing_suite_sweeps_the_kernel_once_per_point(monkeypatch):
    # 5 points x 5 functions: one kernel-weight sweep per point, and one
    # per calibration step.
    from pluripot import _suites, boundary_measure

    swept = []
    reproducer = boundary_measure._reproducer

    def counting_reproducer(dom, z, quad):
        swept.append(len(quad.weights))
        return reproducer(dom, z, quad)

    monkeypatch.setattr(boundary_measure, "_reproducer", counting_reproducer)
    check, calibration = _suites.run_suite("reproducing")
    assert check.samples == 25
    history = calibration.details["history"]
    assert swept[:5] == [24 ** 3] * 5 and len(swept) == 5 + len(history)


def test_calibrate_quadrature_converges():
    dom = make_domain("ball2")
    re_z1 = lambda pts: pts[:, 0].real
    value, res, history = calibrate_quadrature(dom, re_z1, np.array([0.3, 0.0]))
    assert abs(value - 0.3) < 1e-3
    assert res >= 16
    assert len(history) >= 1


def test_green_ratio_matches_kernel():
    ball2 = make_domain("ball2")
    xi = boundary_point(ball2, [1.0, 0.0])
    assert abs(green_normal_derivative(ball2, xi, np.zeros(2)).value - 1.0) < 1e-6
    z = np.array([0.5, 0.0])
    om = poisson_kernel(ball2, xi, z).value
    assert abs(green_normal_derivative(ball2, xi, z).value - abs(om)) < 1e-5

    egg4 = make_domain("egg4")
    xi = boundary_point(egg4, [1.0, 0.0])
    z = egg_geodesic(4, 0.5)(0.0)
    om = poisson_kernel(egg4, xi, z).value
    assert abs(green_normal_derivative(egg4, xi, z).value - abs(om)) < 1e-4

    ball1 = make_domain("ball1")
    assert abs(green_normal_derivative(ball1, [1.0], [0.0]).value - 1.0) < 1e-6


def test_quadrature_csv_roundtrip():
    quad = build_quadrature(make_domain("ball2"), 8)
    buf = io.StringIO()
    quadrature_csv(quad, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "re0,im0,re1,im1,weight,density"
    assert len(lines) == 1 + len(quad.weights)
    first = [float(x) for x in lines[1].split(",")]
    assert len(first) == 6
