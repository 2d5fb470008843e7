"""Named verification suites behind the command-line verify command.

Each suite is a function config -> list[VerificationReport].  Sampling
is seeded and iteration order fixed, so identical configs produce
identical bundles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np

from . import boundary_measure, dilation_jwc, geodesics_metrics, kernels
from .domain_core import (Domain, _brentq_rows, boundary_distance, boundary_point, make_domain,
                          minkowski_gauge)
from .errors import ConvergenceError, DomainError, UnsupportedDomainError
from .hyperbolic_models import annulus_horofunction, horofunction_disc
from .pluripotential_verify import (VerificationReport, _exact_hessians, _geodesic_family,
                                    _geodesic_laplacians, _monge_ampere_bounds, _monge_ampere_residual,
                                    _psh_report, _report, _worst, laplacian_1d, laplacian_noise_floor,
                                    phragmen_lindelof_compare)

_DEFAULT_SEED = 20240519


def _seed(config) -> int:
    return config.get("seed", _DEFAULT_SEED)


def _tol(config, default: float) -> float:
    if config.get("tol") is not None:
        t = config["tol"]
        if not t > 0:
            raise DomainError("tolerance must be positive")
        return t
    return default


def _parse_m(value):
    """Ellipsoid exponents from --m "4,4" or a config file's "m": [4, 4]."""
    if value is None:
        return None
    if isinstance(value, list):
        if not all(type(mj) is int for mj in value):
            raise DomainError(f"m must be a list of integers, got {value!r}")
        return tuple(value)
    try:
        return tuple(int(tok) for tok in str(value).split(","))
    except ValueError:
        raise DomainError(f"m must be comma-separated integers, got {value!r}") from None


def domain_from_config(config) -> Domain:
    """The domain config["domain"] names, with config's "m" and "r" filled in."""
    spec = config["domain"]
    if isinstance(spec, Domain):
        return spec
    if isinstance(spec, str):
        return make_domain(spec, m=_parse_m(config.get("m")), r=config.get("r"))
    return make_domain(spec)


# A suite's domain needs, as (test, message tail formatted with dom).
_BALANCED = (lambda dom: dom.kind in ("disc", "ball", "ellipsoid"),
             "a disc, ball or ellipsoid; got {dom.label}")
_ELLIPSOID_IN_C2 = (lambda dom: dom.kind != "ellipsoid" or dom.n == 2,
                    "an ellipsoid in C^2; got {dom.label}")


def _domains(config, default_specs, suite, needs) -> list:
    """The --domain, checked once against the suite's needs, else the defaults."""
    if not config.get("domain"):
        return [make_domain(s) for s in default_specs]
    dom = domain_from_config(config)
    for ok, tail in needs:
        if not ok(dom):
            raise UnsupportedDomainError(f"{suite} needs " + tail.format(dom=dom))
    return [dom]


def _axis_boundary(dom: Domain):
    e1 = np.zeros(dom.n, dtype=complex)
    e1[0] = 1.0
    return boundary_point(dom, e1)


def _interior_samples(dom: Domain, count, rng, gauge_lo=0.15, gauge_hi=0.7,
                      min_axis_gap=0.0, min_tangential=0.0):
    """Random interior points of a balanced domain, scaled by gauge.

    min_axis_gap excludes points too close to the boundary point e1,
    where kernel-sized features fall under the stencil scale.
    min_tangential excludes the tube around the z1-axis disc, where the
    kernel's complex Hessian vanishes to high order in every entry and
    scale-free residuals are pure stencil noise.

    Each round draws only the candidates still needed, in the order of
    drawing them one at a time (v, then its scale unless v = 0), and
    builds, gauges, scales and rejects them as one stack, each element
    by the arithmetic of one candidate, so the points and the
    generator's state are those of taking each candidate as it is drawn.
    """
    n = dom.n
    out = []
    while len(out) < count:
        raws, scales = [], []
        for _ in range(count - len(out)):
            raw = rng.standard_normal(2 * n)
            if any(raw.tolist()):  # v != 0; cheaper than raw.any()
                raws.append(raw)
                scales.append(rng.uniform(gauge_lo, gauge_hi))
        raws = np.reshape(raws, (-1, 2 * n))
        v = raws[:, :n] + 1j * raws[:, n:]
        z = v / minkowski_gauge(dom, v)[:, None] * np.array(scales)[:, None]
        keep = np.ones(len(z), dtype=bool)
        if min_axis_gap:
            keep &= np.abs(1.0 - z[:, 0]) >= min_axis_gap
        if min_tangential and n >= 2:
            keep &= np.abs(z[:, 1:]).min(axis=1) >= min_tangential
        out.extend(z[keep])
    return out


# ---------------------------------------------------------------------------
# Suite: Poisson-horofunction formula.
# ---------------------------------------------------------------------------

def suite_poisson_horofunction(config) -> list:
    tol = _tol(config, 1e-5)

    def check(dom):
        rng = np.random.default_rng(_seed(config))
        xi = _axis_boundary(dom)
        samples = _interior_samples(dom, 40, rng)
        p, z = samples[0::2], samples[1::2]
        ladder = kernels._horofunction_rows(dom, xi, p, z, "ladder")
        kernel = kernels._horofunction_rows(dom, xi, p, z, "kernel")
        residuals = [abs(a.value - b.value) for a, b in zip(ladder, kernel)]
        unc_max = _worst(0.0, *(a.uncertainty for a in ladder))
        return _report(f"poisson_horofunction[{dom.label}]", residuals, tol,
                       uncertainty=unc_max, details={"ladder_uncertainty_max": unc_max})

    doms = _domains(config, ("ball2", "egg4"), "poisson_horofunction", (_BALANCED,))
    return [check(d) for d in doms]


# ---------------------------------------------------------------------------
# Suite: boundary distance asymptotics of the Kobayashi distance.
# ---------------------------------------------------------------------------

def _points_at_delta(dom: Domain, curves, delta: float) -> np.ndarray:
    """The point on each curve where the boundary distance equals delta.

    The curves are root-found in lockstep, with one stacked
    boundary_distance per Brent step; each root is bit for bit the
    curve's own brentq root.
    """

    def f(ts, rows):
        pts = np.array([curves[i](t) for i, t in zip(rows.tolist(), ts.tolist())])
        return boundary_distance(dom, pts) - delta

    k = len(curves)
    t_star = _brentq_rows(f, np.full(k, 0.5), np.full(k, 1.0 - 1e-9), xtol=1e-15)
    if np.isnan(t_star).any():
        raise ConvergenceError("root finder: no point at the boundary distance on a curve")
    return np.array([curve(t) for curve, t in zip(curves, t_star.tolist())])


def suite_main2_estimate(config) -> list:
    tol = _tol(config, 1e-3)
    delta = 1e-6

    def check(dom):
        xi = _axis_boundary(dom)
        p = np.zeros(dom.n, dtype=complex)
        p[0] = 0.3
        omega_p = kernels.poisson_kernel(dom, xi, p).value
        shift = math.log(abs(omega_p) / 2.0)

        approaches = {"normal": lambda t: xi.position - (1.0 - t) * xi.normal}
        if dom.n >= 2:
            slant = xi.normal + 0.3 * xi.tangent_frame[0]
            approaches["slanted"] = lambda t: xi.position - (1.0 - t) * slant
        if dom.kind == "ellipsoid":
            phi = geodesics_metrics.egg_geodesic(dom.m[0], 0.5)
            approaches["curved"] = lambda t: phi(complex(t))

        zs = _points_at_delta(dom, list(approaches.values()), delta)
        residuals = {}
        for name, z, dist in zip(approaches, zs, boundary_distance(dom, zs).tolist()):
            k = geodesics_metrics.kobayashi_distance(dom, z, p)
            residuals[name] = abs(k.value + math.log(dist) + shift)
        return _report(f"main2_estimate[{dom.label}]", list(residuals.values()), tol,
                       details={"delta": delta, "residuals": residuals})

    doms = _domains(config, ("ball2", "egg4"), "main2_estimate", (_BALANCED, _ELLIPSOID_IN_C2))
    return [check(d) for d in doms]


# ---------------------------------------------------------------------------
# Suite: Monge-Ampere degeneracy of the kernel.
# ---------------------------------------------------------------------------

def _test_function(dom: Domain, xi):
    """The monge_ampere suite's function u of a stack of points: Omega_xi
    by its closed form, which also takes a _jets.JetPoint, so that its
    Hessians are exact.  The suite's one seam for another u, such as a
    known-wrong one that its checks must fail."""
    return kernels.ClosedFormKernel(dom, xi, 1.0).many


def suite_monge_ampere(config) -> list:
    reports = []
    needs = ((lambda dom: dom.n >= 2, "n >= 2; {dom.label} has n = {dom.n}"), _ELLIPSOID_IN_C2)
    for dom in _domains(config, ("ball2", "egg4"), "monge_ampere", needs):
        xi = _axis_boundary(dom)
        u = _test_function(dom, xi)
        rng = np.random.default_rng(_seed(config))
        # min_tangential: on the z1-axis disc of the ellipsoid the kernel
        # restricts to a harmonic function of z0 alone, so the full Hessian
        # degenerates (largest eigenvalue ~ 4|z1|^2) and the determinant
        # ratio is the error of the Hessian divided by |z1|^4.
        samples = _interior_samples(dom, 200, rng,
                                    gauge_lo=0.15, gauge_hi=0.6,
                                    min_axis_gap=0.3, min_tangential=0.05)
        # One jet evaluation on all samples serves both reports.
        hessians = _exact_hessians(u, np.array(samples))
        psh = _psh_report(hessians, _tol(config, 1e-6))
        ma_bound = _worst(0.0, *_monge_ampere_bounds(hessians).tolist())
        zetas = [0.0] + [rad * np.exp(2j * np.pi * l / 8)
                         for rad in (0.2, 0.45, 0.7) for l in range(8)]
        curves = _geodesic_family(dom, xi)
        laplacians, lap_bound = [], 0.0
        for phi, dphi, _ in curves:
            laps, bounds = _geodesic_laplacians(u, phi, dphi, zetas)
            laplacians += laps
            lap_bound = _worst(lap_bound, *bounds.tolist())
        reports += [
            replace(psh, check=f"psh[{dom.label}]"),
            _report(f"monge_ampere[{dom.label}]", _monge_ampere_residual(hessians).tolist(),
                    _tol(config, 1e-5), uncertainty=ma_bound, details={"rounding_bound": ma_bound}),
            _report(f"harmonic_on_geodesics[{dom.label}]", laplacians, _tol(config, 1e-5),
                    uncertainty=lap_bound, details={"curves": len(curves), "rounding_bound": lap_bound}),
        ]
    return reports


# ---------------------------------------------------------------------------
# Suite: reproducing formula on the ball.
# ---------------------------------------------------------------------------

_PLURIHARMONIC_TESTS = (
    ("one", lambda xs: np.ones(xs.shape[0])),
    ("re_z1", lambda xs: xs[:, 0].real),
    ("im_z1", lambda xs: xs[:, 0].imag),
    ("re_z1z2", lambda xs: (xs[:, 0] * xs[:, 1]).real),
    ("re_z1_sq", lambda xs: (xs[:, 0] ** 2).real),
)


def suite_reproducing(config) -> list:
    tol = _tol(config, 1e-3)
    doms = _domains(config, ("ball2",), "reproducing",
                    ((lambda dom: dom.label == "ball2", "ball2; got {dom.label}"),))
    resolution = config.get("resolution", 24)
    points = [np.array([0.0, 0.0], dtype=complex),
              np.array([0.3, 0.0], dtype=complex),
              np.array([0.0, 0.4], dtype=complex),
              np.array([0.2, 0.1], dtype=complex),
              np.array([-0.25, 0.35j], dtype=complex)]

    def check(dom):
        quad = boundary_measure.build_quadrature(dom, resolution)
        # One kernel sweep per point serves every function.
        reproducers = [boundary_measure._reproducer(dom, z, quad) for z in points]
        residuals = {name: [abs(reproduce(F) - float(F(z[None, :])[0]))
                            for z, reproduce in zip(points, reproducers)]
                     for name, F in _PLURIHARMONIC_TESTS}
        per_f = {name: _worst(0.0, *res) for name, res in residuals.items()}
        return _report(f"reproducing[{dom.label}]", [r for res in residuals.values() for r in res],
                       tol, details={"resolution": resolution, "per_function": per_f})

    def calibration(dom):
        name, F = _PLURIHARMONIC_TESTS[1]
        z = points[1]
        value, res, history = boundary_measure.calibrate_quadrature(
            dom, F, z, start_resolution=8, tol=tol)
        residual = abs(value - float(F(z[None, :])[0]))
        return VerificationReport(
            check=f"reproducing_calibration[{dom.label}]",
            samples=len(history), max_residual=residual, tolerance=tol,
            details={"function": name, "final_resolution": res, "history": history},
        )

    return [rep for dom in doms for rep in (check(dom), calibration(dom))]


# ---------------------------------------------------------------------------
# Suite: boundary dilation and the Julia inequalities.
# ---------------------------------------------------------------------------

def suite_dilation(config) -> list:
    tol_pullback = 1e-10
    tol_curve = _tol(config, 1e-3)
    e1_2 = np.array([1.0 + 0j, 0.0 + 0j])

    def pullback():
        mp = dilation_jwc.map_from_spec("egg_to_ball", m=4)
        rng = np.random.default_rng(_seed(config))
        samples = _interior_samples(mp.source, 100, rng)
        xi, xi_target = boundary_point(mp.source, e1_2), boundary_point(mp.target, e1_2)
        return _report("dilation_pullback[egg4->ball2]",
                       dilation_jwc._omega_residuals(mp, xi, xi_target, samples), tol_pullback)

    def alpha_egg():
        mp = dilation_jwc.map_from_spec("egg_to_ball", m=4)
        alpha = dilation_jwc.normalized_dilation(mp, e1_2, e1_2)
        return _report("dilation_alpha[egg4->ball2]", [abs(alpha - 1.0)], 1e-8,
                       details={"alpha": alpha})

    def julia_egg():
        mp = dilation_jwc.map_from_spec("egg_to_ball", m=4)
        rng = np.random.default_rng(_seed(config) + 1)
        samples = _interior_samples(mp.source, 25, rng)
        out = dilation_jwc.julia_checks(mp, e1_2, e1_2, samples)
        residual = out["consistency_residual"]
        if not (out["mj_holds"] and out["pj_holds"]):
            # A violated inequality fails whatever the tolerance.
            residual = math.inf
        return VerificationReport(
            check="julia_consistency[egg4->ball2]",
            samples=25, max_residual=residual, tolerance=1e-9,
            details=out,
        )

    def alpha_identity():
        mp = dilation_jwc.map_from_spec("identity", n=2)
        alpha = dilation_jwc.normalized_dilation(mp, e1_2, e1_2)
        return _report("dilation_alpha[identity ball2]", [abs(alpha - 1.0)], 1e-10,
                       details={"alpha": alpha})

    def projection():
        mp = dilation_jwc.map_from_spec("coordinate_projection", n=2)
        alpha = dilation_jwc.normalized_dilation(mp, e1_2, np.array([1.0 + 0j]))
        z = np.array([0.5, 0.3], dtype=complex)
        deficiency = dilation_jwc.omega_preserving_residual(
            mp, e1_2, np.array([1.0 + 0j]), [z])
        # The projection must NOT transport the kernel: a visible
        # deficiency at this witness point is the expected outcome.
        return _report("dilation_projection_deficiency[ball2->disc]",
                       [_worst(0.0, 1e-3 - deficiency) + abs(alpha - 1.0)], 1e-6,
                       details={"alpha": alpha, "pullback_deficiency": deficiency})

    def curve(lam):
        out = dilation_jwc.special_curve_limit(lam)
        ratio = out["kernel_limit"] / -2.0
        expected_ratio = 1.0 - abs(lam) ** 2
        inv_delta = 1.0 / out["delta_ratio"]
        # One sample: the curve's limits, checked three ways.
        residual = _worst(abs(out["kernel_limit"] - out["expected"]),
                          abs(ratio - expected_ratio),
                          abs(inv_delta - 1.0 / expected_ratio))
        return _report(f"dilation_gamma_curve[lam={lam}]", [residual], tol_curve, details=out)

    reports = [pullback(), alpha_egg(), julia_egg(), alpha_identity(), projection()]
    return reports + [curve(lam) for lam in (0.0, 0.3, 0.6j)]


# ---------------------------------------------------------------------------
# Suite: annulus counterexample.
# ---------------------------------------------------------------------------

def suite_annulus(config) -> list:
    r = config.get("r", 0.5)
    p = 0.7
    if not r < p:
        # The checks sample the circle |z| = p, which must lie in the annulus.
        raise DomainError(f"the annulus suite needs --r in 0 < r < {p:g}, got {r:g}")
    step = 1e-4
    thetas = np.linspace(np.pi / 5.0, 2.0 * np.pi - np.pi / 5.0, 29)

    def ratios_for(horofunction):
        """Laplacian over noise floor of -exp(-horofunction) at each grid point."""
        u = lambda z: -math.exp(-horofunction(1.0, p, complex(z)))
        out = []
        for th in thetas:
            z = p * np.exp(1j * th)
            lap = abs(laplacian_1d(u, z, step))
            floor = laplacian_noise_floor(z, step, amplitude=abs(u(z)))
            out.append(lap / floor)
        return np.asarray(out)

    annulus = ratios_for(functools.partial(annulus_horofunction, r))
    annulus_max = float(annulus.max())
    disc_max = float(ratios_for(horofunction_disc).max())
    # Non-harmonicity must be detected: some grid point at least 100x
    # above the stencil noise floor.  The same pipeline on the disc
    # kernel must stay below 10x the floor at every grid point.
    return [
        VerificationReport(
            check=f"annulus_nonharmonic[r={r:g}]",
            samples=len(thetas), max_residual=100.0 / annulus_max, tolerance=1.0,
            details={"max_ratio": annulus_max,
                     "argmax_theta": float(thetas[int(annulus.argmax())]),
                     "step": step, "p": p},
        ),
        VerificationReport(
            check="disc_control_harmonic",
            samples=len(thetas), max_residual=disc_max / 10.0, tolerance=1.0,
            details={"max_ratio": disc_max, "step": step, "p": p},
        ),
    ]


# ---------------------------------------------------------------------------
# Suite: strong asymptoticity of geodesics with a shared endpoint.
# ---------------------------------------------------------------------------

def suite_asymptoticity(config) -> list:
    tol = _tol(config, 1e-3)
    times = (5.0, 10.0, 15.0, 20.0)

    def pairs_for(dom):
        if dom.kind == "ellipsoid":
            m = dom.m[0]
            return geodesics_metrics.egg_geodesic(m, 0.3), geodesics_metrics.egg_geodesic(m, 0.5j)
        xi = _axis_boundary(dom)
        phi = geodesics_metrics.ball_geodesic(np.array([0.2, 0.1], dtype=complex), xi)
        psi = geodesics_metrics.ball_geodesic(np.array([-0.3, 0.25j], dtype=complex), xi)
        return phi, psi

    def check(dom):
        phi, psi = pairs_for(dom)
        gaps = [geodesics_metrics.asymptoticity_gap(phi, psi, t) for t in times]
        monotone = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
        residual = gaps[-1] if monotone else _worst(*gaps)
        return VerificationReport(
            check=f"asymptoticity[{dom.label}]",
            samples=len(times), max_residual=residual, tolerance=tol,
            details={"times": list(times), "gaps": gaps, "monotone": monotone},
        )

    doms = _domains(config, ("egg2", "ball2"), "asymptoticity",
                    ((lambda dom: dom.kind in ("ball", "ellipsoid") and dom.n == 2,
                      "a ball or ellipsoid in C^2; got {dom.label}"),))
    return [check(d) for d in doms]


# ---------------------------------------------------------------------------
# Suite: Phragmen-Lindelof family membership and domination.
# ---------------------------------------------------------------------------

def suite_phragmen_lindelof(config) -> list:
    tol = _tol(config, 1e-3)
    variants = (("kernel", 1.0, True, True),
                ("kernel_twice", 2.0, True, True),
                ("kernel_half", 0.5, False, False))

    def check(dom, xi, samples, name, scale, exp_member, exp_dominated):
        u = kernels.ClosedFormKernel(dom, xi, scale)
        rep = phragmen_lindelof_compare(u, dom, xi, samples, tol=tol)
        details = dict(rep.details)
        details["expected_member"] = exp_member
        details["expected_dominated"] = exp_dominated
        rep = replace(rep, check=f"phragmen[{dom.label},{name}]", details=details)
        if details["member"] != exp_member or details["dominated"] != exp_dominated:
            # An unexpected outcome fails whatever the tolerance.
            rep = replace(rep, max_residual=math.inf)
        return rep

    reports = []
    for dom in _domains(config, ("ball2", "egg4"), "phragmen_lindelof", (_BALANCED, _ELLIPSOID_IN_C2)):
        # One sample set serves every variant.
        samples = _interior_samples(dom, 30, np.random.default_rng(_seed(config)))
        xi = _axis_boundary(dom)
        reports += [check(dom, xi, samples, *variant) for variant in variants]
    return reports


SUITES = {
    "poisson_horofunction": suite_poisson_horofunction,
    "main2_estimate": suite_main2_estimate,
    "monge_ampere": suite_monge_ampere,
    "reproducing": suite_reproducing,
    "dilation": suite_dilation,
    "annulus": suite_annulus,
    "asymptoticity": suite_asymptoticity,
    "phragmen_lindelof": suite_phragmen_lindelof,
}


def run_suite(name: str, config=None) -> list:
    """Run a named suite; unknown names raise DomainError."""
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; expected one of {sorted(SUITES)}")
    return SUITES[name](dict(config or {}))
