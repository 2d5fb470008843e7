"""Plurisubharmonicity, Monge-Ampere, and extremal-family verification.

All checks are finite-difference based and report a VerificationReport
whose verdict is "pass" exactly when the worst residual meets the
tolerance and it and the stencil uncertainty are finite; "inconclusive"
appears only when the stencil uncertainty exceeds the failure margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _stencils, domain_core, geodesics_metrics, kernels
from ._extrap import extrapolate
from .domain_core import Domain, BoundaryPoint
from .errors import DomainError, UnsupportedDomainError

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class HessianSample:
    """A complex Hessian estimate at one point, with its eigenvalues."""

    point: np.ndarray
    step: float
    matrix: np.ndarray
    richardson_gap: float
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification check over a sample set.

    The verdict is not stored: it is computed from max_residual,
    tolerance and uncertainty (the stencil or ladder uncertainty of the
    residual, which is not serialized), so it cannot disagree with them.
    """

    check: str
    samples: int
    max_residual: float
    tolerance: float
    details: dict = field(default_factory=dict, compare=False)
    uncertainty: float = 0.0

    @property
    def verdict(self) -> str:
        return _verdict(self.max_residual, self.tolerance, self.uncertainty)

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }


def _worst(*values):
    """Largest of the values, or NaN when any of them is NaN.

    Built-in max keeps its running maximum when a later value is NaN
    (every comparison with NaN is false), so a NaN residual would be
    dropped and could read as a pass.
    """
    worst = values[0]
    for v in values[1:]:
        if v != v or v > worst:
            worst = v
    return worst


def _report(check, residuals, tol, **fields) -> VerificationReport:
    """The report of a check whose residual is the worst over its samples.

    residuals holds one residual per sample; a NaN among them is the
    report's residual, and an empty list fails (residual inf).  fields
    are the remaining VerificationReport fields (details, uncertainty).
    """
    worst = _worst(0.0, *residuals) if residuals else math.inf
    return VerificationReport(check=check, samples=len(residuals), max_residual=worst,
                              tolerance=tol, **fields)


def _verdict(residual: float, tol: float, uncertainty: float) -> str:
    # A NaN or infinite residual or uncertainty is no evidence either way.
    if not (math.isfinite(residual) and math.isfinite(uncertainty)):
        return "fail"
    if residual <= tol:
        return "pass"
    if uncertainty > residual - tol:
        return "inconclusive"
    return "fail"


def _on_stack(u):
    """u, a function of one point, as a function of a stack (k, n): a
    kernels.ClosedFormKernel's own array call, else u on each row."""
    if isinstance(u, kernels.ClosedFormKernel):
        return u.many
    return lambda pts: np.array([u(p) for p in pts])


def complex_hessian(u, z, h):
    """Complex Hessian of u at z with step-halving Richardson control.

    u is a function of one point.  z is one point and h its step, or z
    is a stack of points (k, n) and h their steps (k,); a stack gives a
    list of k samples, each bit for bit the sample of its point alone.
    The function is evaluated once, on every stencil point as one stack:
    a kernels.ClosedFormKernel in one array call.  A matrix is the
    extrapolated combination of the h and h/2 stencils; richardson_gap
    records their relative discrepancy.  The eigenvalues of all the
    matrices come from one eigvalsh call.
    """
    z = np.asarray(z, dtype=complex)
    pts = z.reshape(-1, z.shape[-1])
    steps = np.broadcast_to(np.asarray(h, dtype=float), pts.shape[:1])
    if not np.all(steps > 0):
        raise DomainError("stencil step must be positive")
    matrices, gaps = _stencils.hessian_richardson(_on_stack(u), pts, steps)
    eigs = np.linalg.eigvalsh(matrices)
    samples = [HessianSample(point=p, step=float(s), matrix=H, richardson_gap=float(g), eigenvalues=e)
               for p, s, H, g, e in zip(pts, steps, matrices, gaps, eigs)]
    return samples[0] if z.ndim == 1 else samples


def _monge_ampere_residual(sample: HessianSample) -> float:
    """Scale-free Monge-Ampere residual |det H| / lambda_max^n.

    Vanishes (up to stencil noise) exactly when the complex Hessian is
    degenerate, as it is for maximal plurisubharmonic functions.
    """
    eigs = sample.eigenvalues
    lam = float(np.max(np.abs(eigs)))
    if lam == 0.0:
        return 0.0
    return float(np.abs(np.prod(eigs)) / lam ** len(eigs))


def _psh_report(hessians, tol) -> VerificationReport:
    """Plurisubharmonicity over a set of Hessians via their eigenvalues.

    The residual is the worst negative eigenvalue excursion, clipped at 0.
    """
    excursions = [-float(sample.eigenvalues.min()) for sample in hessians]
    gap_max = _worst(0.0, *[sample.richardson_gap for sample in hessians])
    details = {"richardson_gap_max": gap_max}
    worst = _worst(0.0, *excursions)
    if not worst <= 0.0:
        # The first NaN excursion, else the first that attains the maximum.
        at = next(i for i, e in enumerate(excursions) if e != e or e == worst)
        details["worst_point"] = [complex(c) for c in hessians[at].point]
    return _report("plurisubharmonic", excursions, tol, details=details, uncertainty=gap_max)


def _geodesic_laplacians(u, phi, samples) -> list:
    """|Laplacian of u composed with phi| at each disc sample.

    Uses the Richardson-combined 5-point Laplacian (4 L_{h/2} - L_h)/3
    with h = 1e-3 at each disc sample; the stencil must stay inside the
    unit disc.  u is a function of one point.  phi maps the stencil
    points of all samples in one call, and u is evaluated once on their
    images (a kernels.ClosedFormKernel in one array call).
    """
    h = 1e-3
    samples = [complex(zeta) for zeta in samples]
    if any(abs(zeta) + 1.5 * h >= 1.0 for zeta in samples):
        raise DomainError("stencil leaves the unit disc; sample too close to the boundary")
    stencils = [_stencils.five_points(zeta, h) + _stencils.five_points(zeta, h / 2.0) for zeta in samples]
    flat = _on_stack(u)(phi(np.array(stencils).ravel())).tolist()
    out = []
    for i, (zeta, stencil) in enumerate(zip(samples, stencils)):
        # laplacian_1d reads the values back, so they are summed in its order.
        at = dict(zip(stencil, flat[i * len(stencil):(i + 1) * len(stencil)]))
        lap, _ = laplacian_1d(at.__getitem__, zeta, h, richardson=True)
        out.append(abs(lap))
    return out


def _geodesic_family(dom: Domain, xi: BoundaryPoint):
    """Catalogued geodesic discs ending at xi, as (map, normal derivative).

    On an egg with xi on the z0 axis: egg_geodesic(m, a) for a in
    (0, 0.5, 0.25j), rotated to xi.  On the disc and the ball: the
    ball_geodesic through 0, 0.4 xi and 0.2 xi + 0.3 tau_1 (-0.3 xi on
    the disc).
    """
    if dom.kind == "ellipsoid" and dom.n == 2:
        phase = kernels._egg_axis_phase(dom, xi)
        if phase is None:
            raise UnsupportedDomainError("curve family needs an axis boundary point of the egg")
        rot = np.array([phase, 1.0], dtype=complex)
        discs = [geodesics_metrics.egg_geodesic(dom.m[0], a) for a in (0.0, 0.5, 0.25j)]
        return [(lambda t, phi=phi: phi(t) * rot, phi.normal_derivative)
                for phi in discs]
    if dom.kind in ("disc", "ball"):
        bases = [np.zeros(dom.n, dtype=complex), 0.4 * xi.position]
        if dom.n >= 2:
            bases.append(0.2 * xi.position + 0.3 * xi.tangent_frame[0])
        else:
            bases.append(-0.3 * xi.position)
        discs = [geodesics_metrics.ball_geodesic(base, xi) for base in bases]
        return [(phi, phi.normal_derivative) for phi in discs]
    raise UnsupportedDomainError(f"no catalogued curve family for {dom.label}")


def phragmen_lindelof_compare(u, dom: Domain, xi, samples, curves=None, tol=1e-3) -> VerificationReport:
    """Consistency of u with the extremality of the boundary kernel.

    Two signals: (a) membership, limsup u(gamma(t)) (1-t) <= -2/gamma'_N
    along each certified curve; (b) domination, u <= Omega_xi on the
    samples.  The kernel is the greatest member of its family, so
    membership must imply domination; the verdict reports that
    implication, with both signals in the details.
    """
    xi = domain_core.boundary_point(dom, xi)
    if curves is None:
        curves = _geodesic_family(dom, xi)
        if dom.n >= 2:
            # A slanted-normal segment; its velocity has normal component 1.
            vel = xi.normal + 0.3 * xi.tangent_frame[0]
            curves.append((lambda t: xi.position - (1.0 - complex(t)) * vel, 1.0))

    # The kernel values of each curve, and of all the samples, are one
    # call each of u and of Omega_xi when these are closed forms.
    values = _on_stack(u)
    member_viol = 0.0
    curve_limits = []
    ts = 1.0 - 10.0 ** (-np.arange(1, 7, dtype=float))
    for curve, gamma_n in curves:
        vals = (values(np.array([curve(t) for t in ts])) * (1.0 - ts)).tolist()
        est, _ = extrapolate(vals, "membership curve")
        bound = -2.0 / gamma_n
        curve_limits.append({"limit": float(est), "bound": float(bound)})
        member_viol = _worst(member_viol, float(est) - bound)
    member = member_viol <= tol

    samples = np.asarray(samples, dtype=complex).reshape(-1, dom.n)
    dom_viol = _worst(0.0, *(values(samples) - kernels._kernel_rows(dom, xi, samples)).tolist())
    dominated = dom_viol <= tol

    # A non-member passes vacuously; a NaN membership violation is no
    # evidence of non-membership and stays the residual.
    residual = dom_viol if member else (0.0 if member_viol > tol else member_viol)
    return VerificationReport(
        check="phragmen_lindelof",
        samples=len(samples),
        max_residual=residual,
        tolerance=tol,
        details={
            "member": member,
            "dominated": dominated,
            "membership_violation": member_viol,
            "domination_violation": dom_viol,
            "curve_limits": curve_limits,
        },
    )


def laplacian_1d(u, zeta, h, richardson=False):
    """5-point Laplacian of u at a point of C.

    With richardson=True returns (refined, gap): the step-halved
    extrapolation and the raw discrepancy diagnostic.
    """
    plain = _stencils.laplacian_5pt(u, zeta, h)
    if not richardson:
        return plain
    half = _stencils.laplacian_5pt(u, zeta, h / 2.0)
    return (4.0 * half - plain) / 3.0, abs(half - plain)


def laplacian_noise_floor(zeta, h, amplitude=1.0) -> float:
    """Detection floor for the 5-point Laplacian at comparable amplitude.

    Sum of the measured stencil response to the harmonic control
    A Re((w - zeta)^4) and the roundoff bound 8 eps A / h^2, with
    A = max(1, |amplitude|).  Laplacian estimates below a small multiple
    of this floor are indistinguishable from discretization noise.
    """
    zeta = complex(zeta)
    A = max(1.0, abs(amplitude))

    def control(w):
        return A * ((w - zeta) ** 4).real

    measured = abs(_stencils.laplacian_5pt(control, zeta, h))
    return measured + 8.0 * _EPS * A / (h * h)
