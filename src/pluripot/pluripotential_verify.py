"""Plurisubharmonicity, Monge-Ampere, and extremal-family verification.

The psh, Monge-Ampere and harmonicity checks take a function that
takes jets (the ball and egg-axis closed-form kernels) and read its
exact Hessians, from _jets, with their rounding bounds as the
uncertainty.  The finite-difference stencils of _stencils serve
complex_hessian and laplacian_1d, which take any callable.  Every check
reports a VerificationReport whose verdict is "pass" exactly when the
worst residual meets the tolerance and it and the uncertainty are
finite; "inconclusive" appears only when the uncertainty exceeds the
failure margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _jets, domain_core, geodesics_metrics, kernels
from ._stencils import HessianSample, _on_stack, complex_hessian, laplacian_1d
from ._extrap import extrapolate
from .domain_core import Domain, BoundaryPoint
from .errors import UnsupportedDomainError

__all__ = ["HessianSample", "VerificationReport", "complex_hessian", "laplacian_1d",
           "laplacian_noise_floor", "phragmen_lindelof_compare"]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification check over a sample set.

    The verdict is not stored: it is computed from max_residual,
    tolerance and uncertainty (the rounding bound or ladder uncertainty
    of the residual, which is not serialized), so it cannot disagree with them.
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


class _ExactHessians:
    """Exact complex Hessians of a stack of points (k, n), from jets:
    their eigenvalues, and per point the bound of _jets.hessians on the
    error of every eigenvalue."""

    __slots__ = ("points", "eigenvalues", "bounds")

    def __init__(self, points, eigenvalues, bounds):
        self.points, self.eigenvalues, self.bounds = points, eigenvalues, bounds


def _exact_hessians(u, points) -> _ExactHessians:
    """The Hessians of u, a function of a stack that takes a
    _jets.JetPoint, at a stack of points (k, n): one jet evaluation."""
    matrices, bounds = _jets.hessians(u, points)
    return _ExactHessians(points=points, eigenvalues=np.linalg.eigvalsh(matrices), bounds=bounds)


def _monge_ampere_residual(hessians: _ExactHessians):
    """Scale-free Monge-Ampere residual |det H| / lambda_max^n, one per point.

    It vanishes (up to the error of H) exactly when the complex Hessian
    is degenerate, as it is for maximal plurisubharmonic functions; 0
    where H is 0.
    """
    eigs = hessians.eigenvalues
    lam = np.max(np.abs(eigs), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lam == 0.0, 0.0, np.abs(np.prod(eigs, axis=-1)) / lam ** eigs.shape[-1])


def _monge_ampere_bounds(hessians: _ExactHessians):
    """How far each point's residual can be from the exact one, with
    every eigenvalue within its bound b: the residual ranges over
    prod(|lambda_i| -+ b) / (lambda_max +- b)^n (inf when lambda_max <= b)."""
    eigs, b = np.abs(hessians.eigenvalues), hessians.bounds
    lam, n = np.max(eigs, axis=-1), eigs.shape[-1]
    residual = _monge_ampere_residual(hessians)
    with np.errstate(divide="ignore", invalid="ignore"):
        high = np.prod(eigs + b[:, None], axis=-1) / np.maximum(lam - b, 0.0) ** n
        low = np.prod(np.maximum(eigs - b[:, None], 0.0), axis=-1) / (lam + b) ** n
    return np.maximum(high - residual, residual - low)


def _psh_report(hessians: _ExactHessians, tol) -> VerificationReport:
    """Plurisubharmonicity over a stack of exact Hessians via their eigenvalues.

    The residual is the worst negative eigenvalue excursion, clipped at
    0; the uncertainty is the largest eigenvalue bound.
    """
    excursions = (-hessians.eigenvalues[:, 0]).tolist()
    uncertainty = _worst(0.0, *hessians.bounds.tolist())
    details = {"rounding_bound": uncertainty}
    worst = _worst(0.0, *excursions)
    if not worst <= 0.0:
        # The first NaN excursion, else the first that attains the maximum.
        at = next(i for i, e in enumerate(excursions) if e != e or e == worst)
        details["worst_point"] = [complex(c) for c in hessians.points[at]]
    return _report("plurisubharmonic", excursions, tol, details=details, uncertainty=uncertainty)


def _geodesic_laplacians(u, phi, dphi, samples):
    """|Laplacian of u composed with phi| at each disc sample, with bounds.

    u is a function of a stack that takes a _jets.JetPoint and dphi the
    derivative of phi.  The Laplacian is exact:
    4 sum_{j,k} u_{j kbar}(phi) phi'_j conj(phi'_k), from one jet
    evaluation on the images of all samples.  Returns (laplacians,
    bounds), each bound 4 b |phi'|^2 from the bound b of _jets.hessians
    on the spectral norm of the Hessian's error.
    """
    zetas = np.asarray(samples, dtype=complex)
    matrices, bounds = _jets.hessians(u, phi(zetas))
    v = dphi(zetas)
    laplacians = 4.0 * np.einsum("kj,kjl,kl->k", v, matrices, np.conj(v)).real
    return np.abs(laplacians).tolist(), 4.0 * bounds * np.sum(np.abs(v) ** 2, axis=-1)


def _geodesic_family(dom: Domain, xi: BoundaryPoint):
    """Catalogued geodesic discs ending at xi, as (map, derivative,
    normal derivative).

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
        return [(lambda t, phi=phi: phi(t) * rot, lambda t, phi=phi: phi.derivative(t) * rot,
                 phi.normal_derivative) for phi in discs]
    if dom.kind in ("disc", "ball"):
        bases = [np.zeros(dom.n, dtype=complex), 0.4 * xi.position]
        if dom.n >= 2:
            bases.append(0.2 * xi.position + 0.3 * xi.tangent_frame[0])
        else:
            bases.append(-0.3 * xi.position)
        discs = [geodesics_metrics.ball_geodesic(base, xi) for base in bases]
        return [(phi, phi.derivative, phi.normal_derivative) for phi in discs]
    raise UnsupportedDomainError(f"no catalogued curve family for {dom.label}")


def phragmen_lindelof_compare(u, dom: Domain, xi, samples, tol=1e-3) -> VerificationReport:
    """Consistency of u with the extremality of the boundary kernel.

    Two signals: (a) membership, limsup u(gamma(t)) (1-t) <= -2/gamma'_N
    along each catalogued geodesic ending at xi and, for n >= 2, a
    slanted-normal segment; (b) domination, u <= Omega_xi on the
    samples.  The kernel is the greatest member of its family, so
    membership must imply domination; the verdict reports that
    implication, with both signals in the details.  Membership within
    the largest Aitken uncertainty of the curve limits of its bound is
    undecided: a failing domination then leaves the verdict to
    membership, and the report carries that uncertainty.
    """
    xi = domain_core.boundary_point(dom, xi)
    curves = [(phi, normal) for phi, _, normal in _geodesic_family(dom, xi)]
    if dom.n >= 2:
        # A slanted-normal segment; its velocity has normal component 1.
        vel = xi.normal + 0.3 * xi.tangent_frame[0]
        curves.append((lambda t: xi.position - (1.0 - complex(t)) * vel, 1.0))

    # The kernel values of each curve, and of all the samples, are one
    # call each of u and of Omega_xi when these are closed forms.
    values = _on_stack(u)
    member_viol = member_unc = 0.0
    curve_limits = []
    ts = 1.0 - 10.0 ** (-np.arange(1, 7, dtype=float))
    for curve, gamma_n in curves:
        vals = (values(np.array([curve(t) for t in ts])) * (1.0 - ts)).tolist()
        est, unc = extrapolate(vals, "membership curve")
        bound = -2.0 / gamma_n
        curve_limits.append({"limit": float(est), "bound": float(bound)})
        member_viol = _worst(member_viol, float(est) - bound)
        member_unc = _worst(member_unc, float(unc))
    member = member_viol <= tol

    samples = np.asarray(samples, dtype=complex).reshape(-1, dom.n)
    dom_viol = _worst(0.0, *(values(samples) - kernels._kernel_rows(dom, xi, samples)).tolist())
    dominated = dom_viol <= tol

    # A non-member passes vacuously; a NaN membership violation is no
    # evidence of non-membership and stays the residual.  The kernel
    # differences carry no extrapolation error.
    residual = dom_viol if member else (0.0 if member_viol > tol else member_viol)
    uncertainty = 0.0
    if abs(member_viol - tol) <= member_unc and not dominated:
        # The implication fails by min(dom_viol - tol, tol - member_viol)
        # past tol; the second term, and so the minimum, is uncertain by
        # member_unc.
        residual, uncertainty = min(dom_viol, 2.0 * tol - member_viol), member_unc
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
        uncertainty=uncertainty,
    )


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

    measured = abs(laplacian_1d(control, zeta, h))
    return measured + 8.0 * _EPS * A / (h * h)
