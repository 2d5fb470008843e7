"""Exact Hessians by second-order jets, and the monge_ampere suite on them."""

import mpmath
import numpy as np
import pytest

from pluripot import (ClosedFormKernel, _jets, _stencils, _suites, boundary_distance, complex_hessian,
                      defining_function, make_domain, run_suite)
from pluripot.pluripotential_verify import _geodesic_family

from oracles import kernel_hessian_mp

_EPS = float(np.finfo(float).eps)
_ZETAS = [0.0] + [rad * np.exp(2j * np.pi * l / 8) for rad in (0.2, 0.45, 0.7) for l in range(8)]
_EXPONENTS = {"ball2": (2,), "ball3": (2, 2), "egg4": (4,), "egg6": (6,)}


def _suite_samples(dom, count=200, seed=_suites._DEFAULT_SEED):
    """The monge_ampere suite's samples of dom."""
    return np.array(_suites._interior_samples(dom, count, np.random.default_rng(seed), gauge_lo=0.15,
                                              gauge_hi=0.6, min_axis_gap=0.3, min_tangential=0.05))


def _kernel(label):
    dom = make_domain(label)
    return dom, ClosedFormKernel(dom, _suites._axis_boundary(dom), 1.0)


def test_jet_arithmetic_matches_the_derivatives_of_a_rational_function():
    # f = (x y + 3) / (x x + y y + 1) - 2 x, by the quotient rule in 50 digits.
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, (10, 1)) + 1j * rng.uniform(-1.0, 1.0, (10, 1))
    z = _jets.JetPoint(pts)
    x, y = z.coords[0].real, z.coords[0].imag
    f = (x * y + 3.0) / (x * x + y * y + 1.0) - 2.0 * x
    with mpmath.workdps(50):
        for i, p in enumerate(pts[:, 0]):
            X, Y = mpmath.mpf(p.real), mpmath.mpf(p.imag)
            g = lambda a, b: (a * b + 3) / (a * a + b * b + 1) - 2 * a
            want_v = g(X, Y)
            want_g = [mpmath.diff(g, (X, Y), (1, 0)), mpmath.diff(g, (X, Y), (0, 1))]
            want_h = [[mpmath.diff(g, (X, Y), (2, 0)), mpmath.diff(g, (X, Y), (1, 1))],
                      [mpmath.diff(g, (X, Y), (1, 1)), mpmath.diff(g, (X, Y), (0, 2))]]
            assert abs(f.v[i] - float(want_v)) <= 4 * _EPS * abs(float(want_v))
            assert np.allclose(f.g[i], [float(w) for w in want_g], rtol=1e-14, atol=1e-14)
            assert np.allclose(f.h[i], [[float(w) for w in row] for row in want_h], rtol=1e-13, atol=1e-13)
    # Real scalars on either side, and a numpy scalar on the left.
    h = np.float64(2.0) * (1.0 - x) / 4.0 + x * 0.5
    assert np.array_equal(h.v, 0.5 * np.ones(10)) and not h.h.any()


def test_jet_values_are_the_stacked_values():
    # One expression serves both: the jet's value is the float value, to
    # rounding (the float forms take hypot and float_power).
    for label in ("ball2", "ball3", "egg4", "egg6"):
        dom, u = _kernel(label)
        pts = _suite_samples(dom, 50)
        values = u.many(pts)
        assert np.allclose(u.many(_jets.JetPoint(pts)).v, values, rtol=4 * _EPS, atol=0.0)
        rho = _jets.JetPoint(pts)
        assert np.allclose(defining_function(dom, rho).v, defining_function(dom, pts), rtol=0.0, atol=4 * _EPS)


@pytest.mark.parametrize("label", ["ball2", "ball3", "egg4", "egg6"])
def test_jet_rounding_constant_against_mpmath(label):
    # _jets.ROUNDING is calibrated, not proved: it is the next integer
    # above the worst ratio |H - H_exact| / (eps S) measured on these
    # points: the suite's samples, the images of its curve samples, and
    # points of gauge 0.01 to 0.99.  The 50-digit Hessian is the
    # quotient rule, an independent route.
    dom, u = _kernel(label)
    xi = _suites._axis_boundary(dom)
    curves = np.concatenate([phi(np.array(_ZETAS)) for phi, _, _ in _geodesic_family(dom, xi)])
    wide = np.array(_suites._interior_samples(dom, 200, np.random.default_rng(5), gauge_lo=0.01, gauge_hi=0.99))
    pts = np.concatenate([_suite_samples(dom), curves, wide])
    matrices, bounds = _jets.hessians(u.many, pts)
    scale = bounds / (dom.n * _jets.ROUNDING * _EPS)
    worst = 0.0
    for H, S, z in zip(matrices, scale, pts):
        exact = np.array(kernel_hessian_mp(_EXPONENTS[label], z), dtype=complex)
        worst = max(worst, float(np.max(np.abs(H - exact))) / (_EPS * S))
    assert worst <= _jets.ROUNDING
    # The ratios read 0.97 to 1.29 here, but they follow the rounding of
    # the numpy build (SIMD, fused multiply-add), so only a loose floor
    # is checked: the bound is not more than 4 times the worst error.
    assert worst > _jets.ROUNDING / 4.0


def test_exact_route_reports_carry_their_rounding_bounds():
    # On the true kernel every exact residual is rounding error (the
    # kernel's Hessian is degenerate, and harmonic along the curves), so
    # the bound reported as the uncertainty must cover it.
    for config in ({}, {"domain": "egg6"}, {"domain": "ball3"}, {"seed": 1}):
        for rep in run_suite("monge_ampere", config):
            assert rep.verdict == "pass"
            assert 0.0 < rep.uncertainty == rep.details["rounding_bound"]
            assert rep.max_residual <= rep.uncertainty, rep.check


def test_exact_route_residuals():
    # The residuals sit at rounding level; the stencil's Monge-Ampere
    # residuals were 6.2e-9 (ball2) and 2.7e-7 (egg4).  egg6: test_cli.
    by_check = {rep.check: rep for rep in run_suite("monge_ampere")}
    for label in ("ball2", "egg4"):
        assert by_check[f"monge_ampere[{label}]"].max_residual <= 1e-12
        assert by_check[f"psh[{label}]"].max_residual <= 1e-12
        assert by_check[f"harmonic_on_geodesics[{label}]"].max_residual <= 1e-12


def _perturbed(c, coordinates):
    """A monge_ampere test function: Omega_xi + c sum_{j in coordinates} |z_j|^2."""
    def make(dom, xi):
        omega = ClosedFormKernel(dom, xi, 1.0).many

        def u(z):
            w = _jets.coords(z)
            return omega(z) + c * sum(w[j].real * w[j].real + w[j].imag * w[j].imag for j in coordinates)
        return u
    return make


def _control(monkeypatch, label, c, coordinates):
    monkeypatch.setattr(_suites, "_test_function", _perturbed(c, coordinates))
    return {rep.check.split("[")[0]: rep for rep in run_suite("monge_ampere", {"domain": label})}


@pytest.mark.parametrize("label", ["egg4", "egg6"])
def test_monge_ampere_fails_a_strictly_psh_function(label, monkeypatch):
    # Omega + 1e-6 |z|^2 has a nondegenerate Hessian: the exact residuals
    # near 1e-15 do not hide it.
    rep = _control(monkeypatch, label, 1e-6, (0, 1))["monge_ampere"]
    assert rep.verdict == "fail"
    assert rep.max_residual > 10.0 * rep.tolerance


def test_psh_fails_a_function_that_is_not_psh(monkeypatch):
    # Omega - c |z|^2 shifts every eigenvalue by exactly -c, so the
    # excursion is c up to rounding.  c = 1e-6 reads 1e-6 + 1.2e-15 on
    # ball2, within its rounding bound 1.4e-14 of the tolerance 1e-6:
    # inconclusive.  c = 1e-5 is clearly beyond it.
    for label in ("ball2", "egg4"):
        rep = _control(monkeypatch, label, -1e-5, (0, 1))["psh"]
        assert rep.verdict == "fail"
        assert abs(rep.max_residual - 1e-5) <= 1e-5 * 1e-9


def test_harmonic_on_geodesics_fails_a_function_that_is_not_harmonic(monkeypatch):
    # Omega + c |z_1|^2 adds 4 c |phi_1'|^2 to the Laplacian along each
    # egg curve, at most 4 c 0.196 on the suite's samples: c = 1e-4 reads
    # 7.8e-5 against tol 1e-5 (c = 1e-6 would read 7.8e-7, a pass).
    rep = _control(monkeypatch, "egg4", 1e-4, (1,))["harmonic_on_geodesics"]
    assert rep.verdict == "fail"
    dom = make_domain("egg4")
    speeds = [np.abs(dphi(np.array(_ZETAS))[:, 1]) ** 2
              for _, dphi, _ in _geodesic_family(dom, _suites._axis_boundary(dom))]
    assert abs(rep.max_residual - 4e-4 * float(np.max(speeds))) <= 1e-12


@pytest.mark.parametrize("label", ["ball2", "egg4", "egg6"])
def test_stencil_hessian_error_estimate_covers_the_exact_hessian(label):
    # The stencil route on the suite's samples at its former step
    # 1e-3 delta differs from the exact Hessian by no more than its
    # error estimate: the Richardson gap relative to max(1, |H|) plus the
    # rounding term eps |u| / h^2.
    dom, u = _kernel(label)
    pts = _suite_samples(dom)
    steps = 1e-3 * boundary_distance(dom, pts)
    exact, _ = _jets.hessians(u.many, pts)
    for H, z, h in zip(exact, pts, steps):
        sample = complex_hessian(u, z, h)
        bound = _stencils.error_bound(sample.matrix, sample.richardson_gap, abs(u(z)), h)
        assert float(np.max(np.abs(sample.matrix - H))) <= bound
