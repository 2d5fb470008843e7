"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with -s (or -rA) to see the PASS/FAIL lines on a green run.
"""

import math
import time

import numpy as np

from pluripot import (
    ball_geodesic,
    boundary_point,
    egg_geodesic,
    green_normal_derivative,
    line_type,
    make_domain,
    minkowski_gauge,
    poisson_kernel,
    run_suite,
    special_curve_limit,
)

from oracles import poisson_geodesic

E1 = np.array([1.0, 0.0])


def _verdict(n, desc, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {desc} ({detail})")
    assert ok, f"criterion {n}: {desc} ({detail})"


def _suite_reports(name, **config):
    reports = run_suite(name, config)
    return reports, all(r.verdict == "pass" for r in reports)


def _interior(dom, rng, lo=0.15, hi=0.6):
    while True:
        v = rng.standard_normal(dom.n) + 1j * rng.standard_normal(dom.n)
        z = v / minkowski_gauge(dom, v) * rng.uniform(lo, hi)
        if abs(1.0 - z[0]) > 0.3:
            return z


def test_criterion_1_kernel_cross_validation():
    rng = np.random.default_rng(20240519)
    worst_closed = 0.0
    worst_geo = 0.0
    for _ in range(100):
        m = int(rng.choice([2, 4, 6]))
        a = (rng.standard_normal() + 1j * rng.standard_normal())
        a = a / max(1.0, abs(a)) * rng.uniform(0.0, 0.95)
        dom = make_domain(f"egg{m}")
        z = egg_geodesic(m, a)(0.0)
        target = -(1.0 + abs(a) ** m)
        closed = poisson_kernel(dom, E1, z)
        assert closed.method == "closed_form"
        closed = closed.value
        geo = poisson_geodesic(dom, E1, z)
        worst_closed = max(worst_closed, abs(closed - target))
        worst_geo = max(worst_geo, abs(geo - target))
    ok = worst_closed <= 1e-10 and worst_geo <= 1e-10
    _verdict(1, "egg kernel closed form and geodesic formula at 100 geodesic centers",
             ok, f"closed err {worst_closed:.2e}, geodesic err {worst_geo:.2e}, tol 1e-10")


def test_criterion_2_poisson_horofunction_suite():
    start = time.perf_counter()
    reports, ok = _suite_reports("poisson_horofunction")
    elapsed = time.perf_counter() - start
    worst = max(r.max_residual for r in reports)
    ok = ok and elapsed < 30.0
    _verdict(2, "horofunction ladder equals log|Omega(p)| - log|Omega(z)| on ball2 and egg4",
             ok, f"max residual {worst:.2e}, tol 1e-5, runtime {elapsed:.1f}s < 30s")


def test_criterion_3_distance_boundary_estimate():
    reports, ok = _suite_reports("main2_estimate")
    worst = max(r.max_residual for r in reports)
    _verdict(3, "k(z,p) + log delta(z) + log(|Omega(p)|/2) -> 0 along three approach shapes",
             ok, f"max residual {worst:.2e}, tol 1e-3")


def test_criterion_4_green_ladders_match_kernel():
    rng = np.random.default_rng(20240519)
    worst = 0.0
    for label in ("ball2", "egg4"):
        dom = make_domain(label)
        xi = boundary_point(dom, E1)
        for _ in range(10):
            z = _interior(dom, rng)
            target = abs(poisson_kernel(dom, xi, z).value)
            nd = green_normal_derivative(dom, xi, z).value
            worst = max(worst, abs(nd - target))
    ok = worst <= 1e-4
    _verdict(4, "Green normal derivative ladder equals |Omega|, 10 samples per domain",
             ok, f"max err {worst:.2e}, tol 1e-4")


def test_criterion_5_monge_ampere_degeneracy():
    reports, ok = _suite_reports("monge_ampere")
    by_kind = {}
    for r in reports:
        kind = r.check.split("[")[0]
        by_kind.setdefault(kind, []).append(r)
    ma = by_kind["monge_ampere"]
    ok = ok and all(r.samples == 200 for r in ma)
    detail = (f"MA {max(r.max_residual for r in ma):.2e}/1e-5 at 200 samples, "
              f"psh floor {max(r.max_residual for r in by_kind['psh']):.2e}/1e-6, "
              f"geodesic harmonicity {max(r.max_residual for r in by_kind['harmonic_on_geodesics']):.2e}/1e-5")
    _verdict(5, "kernel solves the degenerate Monge-Ampere problem on ball2 and egg4", ok, detail)


def test_criterion_6_boundary_vanishing_and_curve_limit():
    worst_vanish = 0.0
    for label in ("ball2", "egg4"):
        dom = make_domain(label)
        xi = boundary_point(dom, E1)
        etas = ([0.0, 1.0], [-1.0, 0.0], [0.6, 0.8], [0.0, 1.0j], [-0.28, 0.96])
        if label == "egg4":
            etas = ([0.0, 1.0], [-1.0, 0.0], [0.0, 1.0j], [0.0, -1.0], [-0.6, (1 - 0.36) ** 0.25])
        for eta in etas:
            bp = boundary_point(dom, np.asarray(eta, dtype=complex))
            z = bp.position - 1e-6 * bp.normal
            worst_vanish = max(worst_vanish, abs(poisson_kernel(dom, xi, z).value))

    worst_curve = 0.0
    t = 1.0 - 1e-6
    for phi in (ball_geodesic(np.array([0.2, 0.1j]), boundary_point(make_domain("ball2"), E1)),
                egg_geodesic(4, 0.0), egg_geodesic(4, 0.5), egg_geodesic(6, 0.3j)):
        dom = make_domain("ball2") if phi.domain.kind == "ball" else phi.domain
        val = poisson_kernel(dom, E1, phi(t)).value * (1.0 - t)
        worst_curve = max(worst_curve, abs(val + 2.0 / phi.normal_derivative))
    ok = worst_vanish <= 1e-3 and worst_curve <= 1e-3
    _verdict(6, "kernel vanishes at foreign boundary points and Omega(gamma(t))(1-t) -> -2/gamma'_N",
             ok, f"vanish {worst_vanish:.2e}, curve err {worst_curve:.2e}, tol 1e-3")


def test_criterion_7_reproducing_formula():
    reports, ok = _suite_reports("reproducing")
    worst = max(r.max_residual for r in reports)
    _verdict(7, "boundary quadrature reproduces pluriharmonic test functions with unit mass",
             ok, f"max residual {worst:.2e}, tol 1e-3, calibration converged")


def test_criterion_8_dilation_suite():
    reports, ok = _suite_reports("dilation")
    pullback = [r for r in reports if "pullback" in r.check][0]
    curves = [r for r in reports if "gamma_curve" in r.check]
    ok = ok and pullback.max_residual <= 1e-10 and len(curves) == 3
    worst_curve = 0.0
    for lam in (0.0, 0.3, 0.6j):
        out = special_curve_limit(lam)
        expected = 1.0 - abs(lam) ** 2
        worst_curve = max(worst_curve,
                          abs(out["kernel_limit"] + 2.0 * expected),
                          abs(out["kernel_limit"] / -2.0 - expected),
                          abs(1.0 / out["delta_ratio"] - 1.0 / expected))
    ok = ok and worst_curve <= 1e-3
    _verdict(8, "egg-to-ball pullback alpha=1 and projection gamma_lambda limits",
             ok, f"pullback {pullback.max_residual:.2e}/1e-10, curve err {worst_curve:.2e}/1e-3")


def test_criterion_9_annulus_counterexample():
    reports, ok = _suite_reports("annulus", r=0.5)
    ann = [r for r in reports if "annulus" in r.check][0]
    disc = [r for r in reports if "disc" in r.check][0]
    ok = ok and ann.details["max_ratio"] > 100.0 and disc.details["max_ratio"] < 10.0
    _verdict(9, "annulus kernel candidate is non-harmonic while the disc control stays at noise level",
             ok, f"annulus peak {ann.details['max_ratio']:.3g}x floor > 100, "
                 f"disc max {disc.details['max_ratio']:.3g}x floor < 10")


def test_criterion_10_strong_asymptoticity():
    reports, ok = _suite_reports("asymptoticity")
    worst = 0.0
    for r in reports:
        ok = ok and r.details["monotone"]
        worst = max(worst, r.details["gaps"][-1])
    ok = ok and worst <= 1e-3
    _verdict(10, "shared-endpoint geodesic gap decreasing over t in {5,10,15,20} and below 1e-3 at t=20",
             ok, f"gap(20) max {worst:.2e}, monotone on egg2 and ball2")


def test_criterion_11_line_type_probe():
    egg4 = make_domain("egg4")
    ball2 = make_domain("ball2")
    t_pole = line_type(egg4, boundary_point(egg4, E1))
    t_side = line_type(egg4, boundary_point(egg4, np.array([0.0, 1.0])))
    t_ball = [line_type(ball2, boundary_point(ball2, v))
              for v in (E1, np.array([0.6, 0.8]), np.array([0.0, 1.0j]))]
    ok = t_pole == 4 and t_side == 2 and all(t == 2 for t in t_ball)
    _verdict(11, "boundary contact order probe: egg4 pole 4, egg4 equator 2, ball 2",
             ok, f"got {t_pole}, {t_side}, {sorted(set(t_ball))}")
