"""Finite-difference Monge-Ampere and harmonicity verification."""

import math

import numpy as np
import pytest

from pluripot import (
    ClosedFormKernel,
    DomainError,
    annulus_horofunction,
    ball_geodesic,
    boundary_distance,
    boundary_point,
    complex_hessian,
    egg_geodesic,
    egg_invert,
    green_function,
    laplacian_1d,
    laplacian_noise_floor,
    make_domain,
    minkowski_gauge,
    phragmen_lindelof_compare,
    poisson_kernel,
)
from pluripot import _jets
from pluripot.pluripotential_verify import (_exact_hessians, _geodesic_laplacians,
                                          _monge_ampere_residual, _psh_report, _report)

from oracles import interior_samples_one_at_a_time, laplacian_richardson


def _random_interior(dom, rng, lo=0.15, hi=0.6):
    raw = rng.standard_normal(2 * dom.n)
    v = raw[: dom.n] + 1j * raw[dom.n :]
    return v / minkowski_gauge(dom, v) * rng.uniform(lo, hi)


def _kernel(dom, xi):
    return lambda z: poisson_kernel(dom, xi, z).value


def _norm_sq(z):
    """|z|^2 on a stack of points or a _jets.JetPoint."""
    return sum(c.real * c.real + c.imag * c.imag for c in _jets.coords(z))


def _re_z0(z):
    """Re z0 on a stack of points or a _jets.JetPoint: its Hessian is 0."""
    return _jets.coords(z)[0].real


def test_complex_hessian_norm_squared():
    u = lambda z: float(np.sum(np.abs(z) ** 2))
    samp = complex_hessian(u, np.array([0.2, 0.1j]), 1e-4)
    assert np.allclose(samp.matrix, np.eye(2), atol=1e-8)
    assert np.allclose(samp.matrix, samp.matrix.conj().T, atol=1e-12)


def test_complex_hessian_pluriharmonic_vanishes():
    u = lambda z: float((z[0] ** 2).real)
    samp = complex_hessian(u, np.array([0.2, 0.1j]), 1e-4)
    assert np.max(np.abs(samp.matrix)) < 1e-8


def test_complex_hessian_kernel_rank_deficient():
    dom = make_domain("ball2")
    xi = boundary_point(dom, [1.0, 0.0])
    z = np.array([0.3, 0.2j])
    samp = complex_hessian(_kernel(dom, xi), z, 1e-3 * boundary_distance(dom, z))
    eigs = np.linalg.eigvalsh(samp.matrix)
    assert abs(np.prod(eigs)) < 1e-7
    assert eigs.max() > 0.1


def test_hessian_null_direction_follows_geodesic():
    # the degenerate direction of the psh form is the conjugated null
    # eigenvector; it must line up with the geodesic tangent through z
    ball2 = make_domain("ball2")
    egg4 = make_domain("egg4")
    cases = []
    for z in ([0.3, 0.2j], [-0.2 + 0.1j, 0.4]):
        cases.append((ball2, np.array(z, dtype=complex)))
        cases.append((egg4, np.array(z, dtype=complex)))
    for dom, z in cases:
        xi = boundary_point(dom, np.array([1.0, 0.0]))
        samp = complex_hessian(_kernel(dom, xi), z, 1e-3 * boundary_distance(dom, z))
        w_eig, v_eig = np.linalg.eigh(samp.matrix)
        near_zero = np.abs(w_eig) < 1e-4 * np.abs(w_eig).max()
        assert near_zero.sum() == 1
        null = np.conj(v_eig[:, int(np.argmin(np.abs(w_eig)))])
        if dom.kind == "ellipsoid":
            a, zeta = egg_invert(dom.m[0], z)
            phi = egg_geodesic(dom.m[0], a)
        else:
            phi = ball_geodesic(z, xi.position)
            zeta = 0.0
        eps = 1e-6
        tang = (phi(zeta + eps) - phi(zeta - eps)) / (2.0 * eps)
        cosang = abs(np.vdot(tang, null)) / (np.linalg.norm(tang) * np.linalg.norm(null))
        assert math.degrees(math.acos(min(1.0, cosang))) < 5.0


def test_monge_ampere_residual_reference_values():
    pts = np.array([[0.2, 0.1], [0.3j, -0.4]])
    # strictly psh reference: relative residual 1
    assert np.allclose(_monge_ampere_residual(_exact_hessians(_norm_sq, pts)), 1.0, rtol=0.0, atol=1e-12)
    # where the Hessian is 0 the residual is 0
    assert _monge_ampere_residual(_exact_hessians(_re_z0, pts)).tolist() == [0.0, 0.0]

    # the Green function is maximal off its pole: a degenerate Hessian
    dom = make_domain("ball2")
    g0 = lambda z: green_function(dom, np.zeros(2), z).value
    eigs = complex_hessian(g0, np.array([0.4, 0.1]), 1e-4).eigenvalues
    assert abs(np.prod(eigs)) / np.max(np.abs(eigs)) ** 2 < 1e-6


def test_monge_ampere_residual_egg_kernel():
    dom = make_domain("egg4")
    xi = boundary_point(dom, [1.0, 0.0])
    rng = np.random.default_rng(67)
    samples = []
    while len(samples) < 20:
        z = _random_interior(dom, rng)
        # the kernel Hessian degenerates entirely on the z1-axis disc
        if abs(1.0 - z[0]) < 0.3 or abs(z[1]) < 0.05:
            continue
        samples.append(z)
    residuals = _monge_ampere_residual(_exact_hessians(ClosedFormKernel(dom, xi, 1.0).many, np.array(samples)))
    assert residuals.max() < 1e-5


def test_psh_check_verdicts():
    dom = make_domain("ball2")
    xi = boundary_point(dom, [1.0, 0.0])
    rng = np.random.default_rng(71)
    samples = np.array([_random_interior(dom, rng) for _ in range(100)])

    rep = _psh_report(_exact_hessians(ClosedFormKernel(dom, xi, 1.0).many, samples), 1e-6)
    assert rep.verdict == "pass"
    assert rep.samples == 100

    rep = _psh_report(_exact_hessians(lambda z: -_norm_sq(z), samples[:10]), 1e-6)
    assert rep.verdict == "fail"
    assert rep.max_residual > 0.9

    rep = _psh_report(_exact_hessians(_re_z0, samples[:10]), 1e-6)
    assert rep.verdict == "pass"


def test_harmonic_along_geodesic():
    dom = make_domain("egg4")
    xi = boundary_point(dom, [1.0, 0.0])
    phi = egg_geodesic(4, 0.5)
    zetas = [0.0, 0.3, -0.2 + 0.4j, 0.5j]
    laps, _ = _geodesic_laplacians(ClosedFormKernel(dom, xi, 1.0).many, phi, phi.derivative, zetas)
    assert _report("harmonic_along_geodesic", laps, 1e-5).verdict == "pass"

    # Green function pulled back along a geodesic through its pole is
    # harmonic away from the pole
    w = phi(0.3)
    gw = lambda z: green_function(dom, w, z).value
    laps = [abs(laplacian_richardson(lambda t: gw(phi(t)), zeta, 1e-3)[0])
            for zeta in (0.0, -0.4, 0.6j)]
    assert _report("harmonic_along_geodesic", laps, 1e-4).verdict == "pass"

    # non-harmonic reference |z1|^2 must fail
    def bad(z):
        z1 = _jets.coords(z)[1]
        return z1.real * z1.real + z1.imag * z1.imag

    laps, _ = _geodesic_laplacians(bad, phi, phi.derivative, [0.3, 0.5j])
    assert _report("harmonic_along_geodesic", laps, 1e-5).verdict == "fail"


def test_phragmen_lindelof_flags():
    dom = make_domain("ball2")
    xi = boundary_point(dom, [1.0, 0.0])
    rng = np.random.default_rng(73)
    samples = [_random_interior(dom, rng) for _ in range(30)]
    u = _kernel(dom, xi)

    rep = phragmen_lindelof_compare(u, dom, xi, samples)
    assert rep.verdict == "pass"
    assert rep.details["member"] and rep.details["dominated"]

    # 2*Omega decays twice as fast, so it stays a member and is dominated
    rep = phragmen_lindelof_compare(lambda z: 2.0 * u(z), dom, xi, samples)
    assert rep.details["member"] and rep.details["dominated"]
    assert rep.verdict == "pass"

    # Omega/2 violates the curve bound; non-members are exempt from
    # domination, so the verdict stays vacuously pass with both flags off
    rep = phragmen_lindelof_compare(lambda z: 0.5 * u(z), dom, xi, samples)
    assert not rep.details["member"]
    assert not rep.details["dominated"]
    assert rep.verdict == "pass"

    # a member that beats the kernel somewhere is the falsifying case
    rep = phragmen_lindelof_compare(lambda z: u(z) + 0.1, dom, xi, samples)
    assert rep.details["member"]
    assert not rep.details["dominated"]
    assert rep.verdict == "fail"


@pytest.mark.parametrize("spec", ["disc", "ball2", "ball3", "egg4", "egg6"])
@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
def test_stacked_kernel_comparisons_match_the_one_point_calls(spec, scale):
    # With u a ClosedFormKernel, each membership curve is one stacked
    # call of u and the domination one of u and one of Omega_xi; u
    # called point by point, against poisson_kernel point by point,
    # gives the same bits.
    dom = make_domain(spec)
    xi = boundary_point(dom, np.eye(dom.n)[0])
    rng = np.random.default_rng(17)
    samples = [_random_interior(dom, rng, lo=0.01, hi=0.99) for _ in range(300)]
    u = ClosedFormKernel(dom, xi, scale)
    stacked = phragmen_lindelof_compare(u, dom, xi, samples)
    one_point = phragmen_lindelof_compare(lambda z: u(z), dom, xi, samples)
    assert stacked.details["curve_limits"] == one_point.details["curve_limits"]
    violation = max(0.0, *[u(z) - poisson_kernel(dom, xi, z).value for z in samples])
    assert stacked.details["domination_violation"] == violation
    assert (stacked.max_residual, stacked.details) == (one_point.max_residual, one_point.details)


def test_phragmen_undecided_membership_is_inconclusive(monkeypatch):
    # The Aitken uncertainty of each curve limit was dropped.  Widened
    # here past the margin of membership to tol, it leaves membership
    # undecided: a dominated u still passes, and a failing domination is
    # inconclusive, carrying the largest uncertainty; the report still
    # writes no uncertainty.
    from pluripot import pluripotential_verify

    dom = make_domain("egg4")
    xi = boundary_point(dom, [1.0, 0.0])
    samples = [_random_interior(dom, np.random.default_rng(73)) for _ in range(5)]
    u = ClosedFormKernel(dom, xi, 1.0)
    seen = []
    extrapolate = pluripotential_verify.extrapolate

    def widened(values, what):
        est, unc = extrapolate(values, what)
        seen.append(unc + 1e-3)
        return est, unc + 1e-3

    monkeypatch.setattr(pluripotential_verify, "extrapolate", widened)
    rep = phragmen_lindelof_compare(u, dom, xi, samples)
    assert rep.verdict == "pass" and rep.uncertainty == 0.0
    seen.clear()
    rep = phragmen_lindelof_compare(lambda z: u(z) + 0.01, dom, xi, samples)
    assert len(seen) == 4
    assert rep.details["member"] and not rep.details["dominated"]
    assert rep.uncertainty == max(seen)
    assert rep.verdict == "inconclusive" and "uncertainty" not in rep.to_json()


def test_phragmen_domination_just_past_tol_fails():
    # Membership is decided (its violation is far below tol against an
    # Aitken uncertainty near 1e-6), so a domination violation 1e-9 past
    # tol is a plain kernel difference with no uncertainty: fail.
    dom = make_domain("egg4")
    xi = boundary_point(dom, [1.0, 0.0])
    samples = [_random_interior(dom, np.random.default_rng(73)) for _ in range(5)]
    u = ClosedFormKernel(dom, xi, 1.0)
    rep = phragmen_lindelof_compare(lambda z: u(z) + 1e-3 + 1e-9, dom, xi, samples, tol=1e-3)
    assert rep.details["member"] and not rep.details["dominated"]
    assert rep.uncertainty == 0.0 and rep.max_residual > 1e-3
    assert rep.verdict == "fail"


def test_laplacian_1d_references():
    assert abs(laplacian_1d(lambda z: (z ** 2).real, 0.2 + 0.1j, 1e-3)) < 1e-9
    assert abs(laplacian_1d(lambda z: abs(z) ** 2, 0.2 + 0.1j, 1e-3) - 4.0) < 1e-8


def test_laplacian_detects_annulus_kink():
    # the deck-switch seam of the annulus horofunction carries mass
    r, p = 0.5, 0.7
    u = lambda z: -math.exp(-annulus_horofunction(r, 1.0, p, complex(z)))
    h = 1e-4
    seam = p * np.exp(1j * math.pi)
    lap = abs(laplacian_1d(u, seam, h))
    floor = laplacian_noise_floor(seam, h, amplitude=abs(u(seam)))
    assert lap > 100.0 * floor

    # same pipeline on the disc kernel stays at noise level
    from pluripot import horofunction_disc

    ud = lambda z: -math.exp(-horofunction_disc(1.0, p, complex(z)))
    lap = abs(laplacian_1d(ud, seam, h))
    floor = laplacian_noise_floor(seam, h, amplitude=abs(ud(seam)))
    assert lap < 10.0 * floor


def test_laplacian_noise_floor_positive():
    assert laplacian_noise_floor(0.3 + 0.1j, 1e-4, amplitude=2.0) > 0.0


def test_nan_residuals_fail_closed():
    nan_u = lambda z: _re_z0(z) * math.nan
    rep = _psh_report(_exact_hessians(nan_u, np.array([[0.1, 0.2j], [0.3, 0.0]])), 1e-6)
    assert math.isnan(rep.max_residual)
    assert math.isnan(rep.details["rounding_bound"])
    assert rep.verdict == "fail"

    # NaN only at the first sample (0 / 0 where Re z0 = 0): the later
    # finite residual must not replace it.
    phi = ball_geodesic(np.zeros(2), np.array([1.0, 0.0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        laps, _ = _geodesic_laplacians(lambda z: _re_z0(z) / _re_z0(z), phi, phi.derivative, [0.0, 0.5])
    assert math.isnan(laps[0]) and math.isfinite(laps[1])
    rep = _report("harmonic_along_geodesic", laps, 1e-5)
    assert math.isnan(rep.max_residual)
    assert rep.verdict == "fail"


def test_phragmen_nan_domination_fails_closed(monkeypatch):
    ball2 = make_domain("ball2")
    xi = boundary_point(ball2, [1.0, 0.0])
    kernel = _kernel(ball2, xi)
    # The kernel itself near the boundary, where the membership curves
    # live, and NaN at the interior samples.
    u = lambda z: kernel(z) if np.linalg.norm(z) > 0.85 else math.nan
    samples = [np.array([0.2, 0.1j]), np.array([-0.3, 0.2])]
    rep = phragmen_lindelof_compare(u, ball2, xi, samples)
    assert rep.details["member"]
    assert math.isnan(rep.details["domination_violation"])
    assert rep.verdict == "fail"

    # A curve whose normal derivative is NaN leaves membership undecided.
    from pluripot import pluripotential_verify

    monkeypatch.setattr(pluripotential_verify, "_geodesic_family",
                        lambda dom, xi: [(lambda t: np.array([complex(t), 0.0]), None, math.nan)])
    rep = phragmen_lindelof_compare(kernel, ball2, xi, samples)
    assert math.isnan(rep.details["membership_violation"])
    assert rep.verdict == "fail"


def test_suite_nan_gap_fails_closed(monkeypatch):
    from pluripot import geodesics_metrics, run_suite

    gaps = {5.0: 1e-4, 10.0: math.nan, 15.0: 1e-5, 20.0: 1e-6}
    monkeypatch.setattr(geodesics_metrics, "asymptoticity_gap", lambda phi, psi, t: gaps[t])
    reports = run_suite("asymptoticity")
    assert reports
    for rep in reports:
        assert math.isnan(rep.max_residual)
        assert rep.verdict == "fail"


def test_suite_reports_nan_ladder_uncertainty(monkeypatch):
    from types import SimpleNamespace

    from pluripot import kernels, run_suite

    calls = []

    def fake(dom, xi, p, z, method):
        # NaN in the first row of the first ladder only.
        calls.append(method)
        uncs = [math.nan if calls == ["ladder"] and i == 0 else 0.0 for i in range(len(z))]
        return [SimpleNamespace(value=0.0, uncertainty=unc) for unc in uncs]

    monkeypatch.setattr(kernels, "_horofunction_rows", fake)
    first = run_suite("poisson_horofunction")[0]
    assert math.isnan(first.details["ladder_uncertainty_max"])


def test_poisson_horofunction_suite_stacks_each_domains_ladder(monkeypatch):
    # One _distance_rows call per domain takes all 20 pairs' 16 rung
    # pairs, and one kernel-form call all their closed forms.
    from pluripot import geodesics_metrics, kernels, run_suite

    ladders, forms = [], []
    rows, many = geodesics_metrics._distance_rows, kernels._exact_horofunctions

    def counting_rows(dom, z, w):
        ladders.append((dom.label, len(z)))
        return rows(dom, z, w)

    def counting_many(dom, xi, p, z):
        forms.append(len(z))
        return many(dom, xi, p, z)

    def refused(*args, **kwargs):
        raise AssertionError("a one-point call")

    monkeypatch.setattr(geodesics_metrics, "_distance_rows", counting_rows)
    monkeypatch.setattr(kernels, "_exact_horofunctions", counting_many)
    monkeypatch.setattr(kernels, "horofunction", refused)
    monkeypatch.setattr(geodesics_metrics, "kobayashi_distance", refused)
    for config, labels in (({}, ["ball2", "egg4"]), ({"domain": "egg6"}, ["egg6"])):
        ladders.clear()
        forms.clear()
        reports = run_suite("poisson_horofunction", config)
        assert [rep.verdict for rep in reports] == ["pass"] * len(labels)
        assert ladders == [(label, 320) for label in labels]
        assert forms == [20] * len(labels)


def test_verdict_fails_closed_on_non_finite():
    from pluripot.pluripotential_verify import _verdict

    for residual, uncertainty in ((1e-9, math.inf), (-math.inf, 0.0), (1.0, math.inf),
                                  (math.inf, 0.0), (math.nan, 0.0), (1e-9, math.nan),
                                  (1e-9, -math.inf)):
        assert _verdict(residual, 1e-6, uncertainty) == "fail"
    assert _verdict(1e-9, 1e-6, 1e-3) == "pass"
    assert _verdict(2e-6, 1e-6, 1e-3) == "inconclusive"
    assert _verdict(1.0, 1e-6, 1e-3) == "fail"


def test_monge_ampere_suite_work_count(monkeypatch):
    # Per domain one jet evaluation on the 200 samples serves both the
    # psh and the Monge-Ampere report, and one per curve on its 25 disc
    # samples the harmonicity report.  The exact Hessians need no step:
    # no boundary projection or distance, and no stencil.
    from pluripot import _jets, _stencils, _suites, domain_core, pluripotential_verify

    jets = []
    hessians = _jets.hessians

    def counting(f, points):
        jets.append(len(points))
        return hessians(f, points)

    def refused(*args, **kwargs):
        raise AssertionError("a boundary projection or a stencil")

    monkeypatch.setattr(_jets, "hessians", counting)
    for name in ("boundary_project", "boundary_distance"):
        monkeypatch.setattr(domain_core, name, refused)
    monkeypatch.setattr(_suites, "boundary_distance", refused)
    monkeypatch.setattr(_stencils, "hessian_richardson", refused)
    for module in (_stencils, _suites, pluripotential_verify):
        monkeypatch.setattr(module, "laplacian_1d", refused)
    reports = _suites.suite_monge_ampere({})
    assert [rep.samples for rep in reports] == [200, 200, 75] * 2
    assert jets == [200, 25, 25, 25] * 2


def test_harmonic_on_geodesics_work_count(monkeypatch):
    # Every kernel call is a jet evaluation, none a stencil's stack of
    # values or a one-point call: per domain one on the 200 samples, then
    # one per curve on the images of its 25 disc samples.
    from pluripot import _jets, _suites, kernels

    sizes = []
    many = kernels.ClosedFormKernel.many

    def counting_many(self, pts):
        assert isinstance(pts, _jets.JetPoint)
        sizes.append(len(pts.points))
        return many(self, pts)

    def one_point(self, z):
        raise AssertionError("a one-point kernel call")

    monkeypatch.setattr(kernels.ClosedFormKernel, "many", counting_many)
    monkeypatch.setattr(kernels.ClosedFormKernel, "__call__", one_point)
    reports = _suites.suite_monge_ampere({})
    assert [rep.check for rep in reports][2::3] == ["harmonic_on_geodesics[ball2]",
                                                    "harmonic_on_geodesics[egg4]"]
    assert sizes == [200, 25, 25, 25, 200, 25, 25, 25]


def test_phragmen_lindelof_suite_work_count(monkeypatch):
    # Per domain and variant: one stacked kernel call per membership
    # curve (its 6 points) and two for the domination (u and Omega_xi on
    # the 30 samples); no one-point kernel call and no poisson_kernel.
    from pluripot import _suites, kernels

    sizes = []
    many, exact = kernels.ClosedFormKernel.many, kernels._exact_kernels

    def counting_many(self, pts):
        sizes.append(len(pts))
        return many(self, pts)

    def counting_exact(dom, xi, z):
        sizes.append(len(z))
        return exact(dom, xi, z)

    def refused(*args, **kwargs):
        raise AssertionError("a one-point kernel call")

    monkeypatch.setattr(kernels.ClosedFormKernel, "many", counting_many)
    monkeypatch.setattr(kernels, "_exact_kernels", counting_exact)
    monkeypatch.setattr(kernels.ClosedFormKernel, "__call__", refused)
    monkeypatch.setattr(kernels, "poisson_kernel", refused)
    reports = _suites.suite_phragmen_lindelof({})
    assert [rep.verdict for rep in reports] == ["pass"] * 6
    assert sizes == ([6] * 4 + [30, 30]) * 6


def test_dilation_suite_work_count(monkeypatch):
    # The pullback's 100 samples, the Julia check's 25 samples with its 8
    # ladder rungs, and each curve's 8 rungs are stacks: one kernel call
    # per side.  The only one-point kernels are the 8 at the base points
    # of the four dilations, and each dilation ladder is one distance
    # call per side, so julia_checks takes one egg ladder.
    from pluripot import _suites, geodesics_metrics, kernels

    sizes, base_points, ladders = [], [], []
    many, exact = kernels.ClosedFormKernel.many, kernels._exact_kernels
    poisson = kernels.poisson_kernel
    rows = geodesics_metrics._distance_rows

    def counting_many(self, pts):
        sizes.append(len(pts))
        return many(self, pts)

    def counting_exact(dom, xi, z):
        sizes.append(len(z))
        return exact(dom, xi, z)

    def counting_poisson(dom, xi, z):
        base_points.append(not np.any(z))
        # A one-point kernel is no stack.
        with monkeypatch.context() as alone:
            alone.setattr(kernels, "_exact_kernels", exact)
            return poisson(dom, xi, z)

    def counting_rows(dom, z, w):
        ladders.append((dom.label, len(z)))
        return rows(dom, z, w)

    def refused(*args, **kwargs):
        raise AssertionError("a one-point call")

    monkeypatch.setattr(kernels.ClosedFormKernel, "many", counting_many)
    monkeypatch.setattr(kernels, "_exact_kernels", counting_exact)
    monkeypatch.setattr(kernels.ClosedFormKernel, "__call__", refused)
    monkeypatch.setattr(kernels, "poisson_kernel", counting_poisson)
    monkeypatch.setattr(kernels, "horofunction", refused)
    monkeypatch.setattr(geodesics_metrics, "kobayashi_distance", refused)
    monkeypatch.setattr(geodesics_metrics, "_distance_rows", counting_rows)
    reports = _suites.suite_dilation({})
    assert [rep.verdict for rep in reports] == ["pass"] * 8
    # pullback, julia (horofunctions of samples and rungs, then kernels
    # of the samples), projection, three curves.
    assert sizes == [100, 100, 66, 66, 25, 25, 1, 1, 8, 8, 8]
    assert base_points == [True] * 8
    # alpha_egg, julia_egg, alpha_identity, projection.
    assert ladders == [("egg4", 8), ("ball2", 8)] * 2 + [("ball2", 8)] * 3 + [("disc", 8)]


@pytest.mark.parametrize("label", ["ball2", "egg4", "egg6"])
def test_main2_estimate_points_are_each_curves_own_root(label, monkeypatch):
    # The suite's approaches share one lockstep Brent, one stacked
    # boundary_distance per step (and one more for the distances of the
    # points found); each point is bit for bit the curve's own brentq
    # root.
    from pluripot import _suites, domain_core

    dom = make_domain(label)
    xi = _suites._axis_boundary(dom)
    slant = xi.normal + 0.3 * xi.tangent_frame[0]
    phi = egg_geodesic(dom.m[0], 0.5) if dom.kind == "ellipsoid" else None
    curves = [lambda t: xi.position - (1.0 - t) * xi.normal, lambda t: xi.position - (1.0 - t) * slant]
    if phi is not None:
        curves.append(lambda t: phi(complex(t)))
    want = []
    for curve in curves:
        t = domain_core.brentq(lambda t: boundary_distance(dom, curve(t)) - 1e-6, 0.5, 1.0 - 1e-9,
                               xtol=1e-15)
        want.append(curve(t))
    assert _suites._points_at_delta(dom, curves, 1e-6).tobytes() == np.array(want).tobytes()

    shapes = []
    distance = _suites.boundary_distance

    def counting(dom, z):
        shapes.append(np.shape(z))
        return distance(dom, z)

    monkeypatch.setattr(_suites, "boundary_distance", counting)
    report, = _suites.run_suite("main2_estimate", {"domain": label})
    assert report.verdict == "pass"
    assert shapes[0] == shapes[-1] == (len(curves), dom.n)
    assert all(len(shape) == 2 and shape[0] <= len(curves) for shape in shapes)


@pytest.mark.parametrize("spec, curve", [("egg4", lambda xi: egg_geodesic(4, 0.25j)),
                                         ("ball2", lambda xi: ball_geodesic([0.2, 0.3j], xi))])
def test_geodesic_laplacians_match_the_one_point_stencil(spec, curve):
    # The exact Laplacians agree with the Richardson 5-point stencil,
    # taken one point at a time, to within the stencil's step-halving gap
    # and the jet bound: on the kernel (harmonic, 0) and on |z|^2 (not).
    dom = make_domain(spec)
    xi = boundary_point(dom, [1.0, 0.0])
    phi = curve(xi)
    u = ClosedFormKernel(dom, xi, 1.0)
    zetas = [0.0, 0.3, -0.2 + 0.4j, 0.65j]
    for stacked, one in ((u.many, lambda z: float(u(z))),
                         (_norm_sq, lambda z: float(np.sum(np.abs(z) ** 2)))):
        laps, bounds = _geodesic_laplacians(stacked, phi, phi.derivative, zetas)
        for zeta, lap, bound in zip(zetas, laps, bounds):
            want, gap = laplacian_richardson(lambda w: one(phi(w)), zeta, 1e-3)
            assert abs(lap - abs(want)) <= gap + bound
    assert min(laps) > 3.0


@pytest.mark.parametrize("spec, curve", [("egg4", lambda xi: egg_geodesic(4, 0.25j)),
                                         ("ball2", lambda xi: ball_geodesic([0.2, 0.3j], xi))])
def test_geodesic_laplacian_bounds_cover_a_known_laplacian(spec, curve):
    # |z|^2 has Hessian the identity, so its Laplacian along phi is
    # 4 |phi'|^2; each returned bound covers the distance to it.
    dom = make_domain(spec)
    phi = curve(boundary_point(dom, [1.0, 0.0]))
    zetas = np.array([0.0, 0.3, -0.2 + 0.4j, 0.65j])
    laps, bounds = _geodesic_laplacians(_norm_sq, phi, phi.derivative, zetas)
    want = 4.0 * np.sum(np.abs(phi.derivative(zetas)) ** 2, axis=-1)
    assert np.all(np.abs(np.array(laps) - want) <= bounds)
    assert np.all((bounds > 0.0) & (bounds < 1e-12))


def test_report_verdict_is_derived_from_its_numbers():
    import dataclasses

    from pluripot import VerificationReport

    def report(residual, tol=1e-6, uncertainty=0.0):
        return VerificationReport(check="c", samples=1, max_residual=residual, tolerance=tol,
                                  uncertainty=uncertainty)

    for residual in (math.nan, math.inf, -math.inf):
        assert report(residual, tol=10.0).verdict == "fail"
    assert report(1e-9).verdict == "pass"
    assert report(2e-6, uncertainty=1e-3).verdict == "inconclusive"
    assert report(1e-9, uncertainty=math.nan).verdict == "fail"
    # The uncertainty decides no verdict on its own and is not serialized.
    assert "uncertainty" not in report(1e-9).to_json()
    assert report(1e-9).to_json()["verdict"] == "pass"
    with pytest.raises(TypeError):
        dataclasses.replace(report(1.0), verdict="pass")


def test_phragmen_expectation_mismatch_fails_at_any_tolerance():
    # With tol = 10 the halved kernel reads as a member, against its
    # expected flags: a forced failure, which no tolerance may turn into
    # a pass.
    from pluripot import run_suite

    halves = [r for r in run_suite("phragmen_lindelof", {"tol": 10.0})
              if r.check.endswith(",kernel_half]")]
    assert len(halves) == 2
    assert all(r.verdict == "fail" and r.max_residual == math.inf for r in halves)


def _hessian_oracle(u, z, h):
    """(matrix, gap) of the step-halved stencil, one point per call of u.

    Each directional Laplacian evaluates u at its 4 points and at z, the
    off-diagonal entries come from polarization, in the operation order
    of the matrix the package returns.
    """
    n = len(z)
    eye = np.eye(n)

    def hessian(h):
        def lap(v):
            v = np.asarray(v, dtype=complex)
            s = u(z + h * v) + u(z - h * v) + u(z + 1j * h * v) + u(z - 1j * h * v)
            return (s - 4.0 * u(z)) / (4.0 * h * h)

        H = np.zeros((n, n), dtype=complex)
        for j in range(n):
            H[j, j] = lap(eye[j])
        for j in range(n):
            for k in range(j + 1, n):
                re = (lap(eye[j] + eye[k]) - lap(eye[j] - eye[k])) / 4.0
                im = (lap(eye[j] + 1j * eye[k]) - lap(eye[j] - 1j * eye[k])) / 4.0
                H[j, k] = re + 1j * im
                H[k, j] = np.conj(H[j, k])
        return (H + H.conj().T) / 2.0

    H1, H2 = hessian(h), hessian(h / 2.0)
    gap = float(np.max(np.abs(H1 - H2))) / max(1.0, float(np.max(np.abs(H2))))
    return (4.0 * H2 - H1) / 3.0, gap


@pytest.mark.parametrize("label", ["ball2", "egg4", "ball3"])
def test_kernel_hessian_stack_matches_pointwise_bit_for_bit(label):
    # The suite's samples: one stacked kernel call per Hessian gives the
    # bits of 49 scalar poisson_kernel calls in the per-direction stencil.
    from pluripot import _suites

    dom = make_domain(label)
    xi = _suites._axis_boundary(dom)
    kernel = ClosedFormKernel(dom, xi, 1.0)
    scalar = lambda z: poisson_kernel(dom, xi, z).value
    rng = np.random.default_rng(20240519)
    samples = _suites._interior_samples(dom, 50, rng, gauge_lo=0.15, gauge_hi=0.6,
                                        min_axis_gap=0.3, min_tangential=0.05)
    for z in samples:
        h = 1e-3 * boundary_distance(dom, z)
        stacked = complex_hessian(kernel, z, h)
        pointwise = complex_hessian(scalar, z, h)
        matrix, gap = _hessian_oracle(scalar, z, h)
        assert stacked.matrix.tobytes() == pointwise.matrix.tobytes() == matrix.tobytes()
        assert stacked.richardson_gap == pointwise.richardson_gap == gap


def test_plain_function_hessian_matches_oracle_bit_for_bit():
    u = lambda z: float(np.sum(np.abs(z) ** 4)) + float((z[0] * np.conj(z[-1])).real) ** 3
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        for _ in range(20):
            z = 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            sample = complex_hessian(u, z, 1e-3)
            matrix, gap = _hessian_oracle(u, z, 1e-3)
            assert sample.matrix.tobytes() == matrix.tobytes()
            assert sample.richardson_gap == gap


def test_hessian_stencil_leaving_the_domain_raises_on_both_paths():
    egg = make_domain("egg4")
    xi = boundary_point(egg, [1.0, 0.0])
    z = np.array([0.0, 0.9])  # inside, but z + 0.2 e_2 is not
    for u in (ClosedFormKernel(egg, xi, 1.0), _kernel(egg, xi)):
        with pytest.raises(DomainError, match="inside the domain"):
            complex_hessian(u, z, 0.2)


def test_hessian_rejects_a_step_that_is_not_positive():
    u = ClosedFormKernel(make_domain("ball2"), [1.0, 0.0], 1.0)
    for bad in (0.0, -1e-3, math.nan):
        with pytest.raises(DomainError, match="step must be positive"):
            complex_hessian(u, np.array([0.3, 0.0]), bad)


def test_report_reduces_residuals_to_the_worst():
    rep = _report("c", [1e-9, 3e-7, 2e-8], 1e-6, details={"k": 1}, uncertainty=1e-12)
    assert (rep.samples, rep.max_residual, rep.verdict) == (3, 3e-7, "pass")
    assert rep.details == {"k": 1} and rep.uncertainty == 1e-12
    for residuals in ([math.nan, 1e-9], [1e-9, math.nan, 1e-9], [1e-9, math.nan]):
        rep = _report("c", residuals, 1e-6)
        assert rep.samples == len(residuals)
        assert math.isnan(rep.max_residual) and rep.verdict == "fail"
    # No samples is no evidence, whatever the tolerance.
    empty = _report("c", [], 10.0)
    assert (empty.samples, empty.max_residual, empty.verdict) == (0, math.inf, "fail")


def test_suite_domain_needs_are_checked_on_the_given_domain_only():
    from pluripot import UnsupportedDomainError
    from pluripot._suites import _domains

    checked = []

    def ok(dom):
        checked.append(dom.label)
        return dom.n == 2

    needs = ((ok, "C^2; got {dom.label} with n = {dom.n}"),)
    assert [d.label for d in _domains({}, ("disc", "ball3"), "s", needs)] == ["disc", "ball3"]
    assert checked == []
    assert [d.label for d in _domains({"domain": "egg4"}, ("disc",), "s", needs)] == ["egg4"]
    with pytest.raises(UnsupportedDomainError, match=r"^s needs C\^2; got ball3 with n = 3$"):
        _domains({"domain": "ball3"}, ("disc",), "s", needs)
    assert checked == ["egg4", "ball3"]


@pytest.mark.parametrize("label", ["ball2", "egg4", "disc", "ellipsoid[4,6]"])
@pytest.mark.parametrize("count", [1, 40, 200])
@pytest.mark.parametrize("gaps", [{}, {"min_axis_gap": 0.3}, {"min_tangential": 0.05},
                                  {"min_axis_gap": 0.3, "min_tangential": 0.05}])
def test_interior_samples_keep_the_one_at_a_time_points_and_stream(label, count, gaps):
    # Gauging a round's candidates as one stack changes neither the
    # points nor what is left of the generator's stream.
    from pluripot import _suites

    dom = make_domain({"kind": "ellipsoid", "m": [4, 6]} if label == "ellipsoid[4,6]" else label)
    ours, theirs = np.random.default_rng(20240519), np.random.default_rng(20240519)
    samples = _suites._interior_samples(dom, count, ours, gauge_hi=0.6, **gaps)
    reference = interior_samples_one_at_a_time(dom, count, theirs, gauge_hi=0.6, **gaps)
    assert len(samples) == count
    assert all(a.tobytes() == b.tobytes() for a, b in zip(samples, reference))
    assert ours.bit_generator.state == theirs.bit_generator.state


class _ZeroDraw:
    """A generator whose standard_normal draw number `at` (from 0) comes
    back all zero; it still takes that draw from the stream."""

    def __init__(self, seed, at):
        self.rng, self.at, self.draws = np.random.default_rng(seed), at, 0
        self.bit_generator = self.rng.bit_generator

    def standard_normal(self, size):
        raw = self.rng.standard_normal(size)
        self.draws += 1
        return np.zeros_like(raw) if self.draws == self.at + 1 else raw

    def uniform(self, low, high):
        return self.rng.uniform(low, high)


@pytest.mark.parametrize("label", ["ball2", "egg4", "disc"])
@pytest.mark.parametrize("count, at", [(1, 0), (5, 0), (5, 3)])
def test_interior_samples_skip_an_all_zero_draw_without_a_scale(label, count, at):
    # No Gaussian draw is all zero, so a stub supplies one: it is skipped
    # with no uniform draw, as one candidate at a time skips it.  With
    # count 1 and the zero first, the first round has no candidate at all.
    from pluripot import _suites

    dom = make_domain(label)
    ours, theirs = _ZeroDraw(7, at), _ZeroDraw(7, at)
    samples = _suites._interior_samples(dom, count, ours, min_axis_gap=0.3)
    reference = interior_samples_one_at_a_time(dom, count, theirs, min_axis_gap=0.3)
    assert ours.draws > at and ours.draws == theirs.draws
    assert len(samples) == count
    assert all(a.tobytes() == b.tobytes() for a, b in zip(samples, reference))
    assert all(isinstance(a, np.ndarray) and a.dtype == complex and a.shape == (dom.n,)
               for a in samples)
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_monge_ampere_suite_gauges_only_stacks(monkeypatch):
    from pluripot import _suites, domain_core, geodesics_metrics

    gauged = []
    gauge = domain_core.minkowski_gauge

    def recording(dom, z):
        gauged.append(np.ndim(z))
        return gauge(dom, z)

    for module in (_suites, domain_core, geodesics_metrics):
        monkeypatch.setattr(module, "minkowski_gauge", recording)
    _suites.run_suite("monge_ampere", {"domain": "egg4"})
    assert gauged and 1 not in gauged
