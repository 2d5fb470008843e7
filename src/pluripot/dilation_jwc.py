"""Boundary dilation of holomorphic maps and Julia-type inequalities.

For a holomorphic map f between domains with distinguished boundary
points xi -> xi' and base points p -> p', the boundary dilation is
    log lambda = lim_j [ k(z_j, p) - k'(f(z_j), p') ]
along an inward ladder at xi.  The two Julia inequalities verified here:

  (MJ)  h'_{xi'}(f(z), p') <= h_xi(z, p) + log lambda
  (PJ)  Omega_xi(z) / Omega'_{xi'}(f(z)) <= alpha

with alpha = lambda * Omega_xi(p) / Omega'_{xi'}(p'), and both suprema
are attained in the limit at xi.  The two formulations are linked by
    exp(sup MJ gap) * |Omega_xi(p)| / |Omega'_{xi'}(p')| = sup PJ ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import geodesics_metrics, kernels
from ._extrap import extrapolate, normal_ladder
from .domain_core import (Domain, _inside_rows, as_point, boundary_distance, boundary_point,
                          defining_function, make_domain)
from .errors import DomainError, UnsupportedDomainError
from .pluripotential_verify import _worst

# Ladder exponents: every boundary limit here steps in to 10^-j, j = 1..8.
_JS = range(1, 9)
# Relative slack of the Julia inequalities, on top of the ladder
# uncertainties.
_JULIA_SLACK = 1e-8


@dataclass(frozen=True, eq=False)
class MapUnderTest:
    """A holomorphic map between domains with chosen base points."""

    source: Domain
    target: Domain
    fn: Callable
    source_base: np.ndarray
    target_base: np.ndarray

    def __call__(self, z):
        return np.asarray(self.fn(np.asarray(z, dtype=complex)), dtype=complex)


def map_from_spec(name: str, *, m=4, n=2) -> MapUnderTest:
    """Build one of the catalogued maps, each based at the origin.

    identity: the identity of the n-ball.  coordinate_projection: the
    first coordinate, n-ball to disc.  egg_to_ball: (z0, z1) ->
    (z0, z1^{m/2}), the squaring map of a 2-dimensional egg onto the
    2-ball; it preserves the kernel at the axis boundary point.
    """
    if name == "identity":
        dom = make_domain("ball", n=n) if n > 1 else make_domain("disc")
        p = np.zeros(dom.n, dtype=complex)
        return MapUnderTest(source=dom, target=dom, fn=lambda z: z, source_base=p, target_base=p)
    if name == "coordinate_projection":
        src = make_domain("ball", n=n)
        tgt = make_domain("disc")
        p = np.zeros(n, dtype=complex)
        fn = lambda z: np.asarray(z, dtype=complex)[..., :1]
        return MapUnderTest(source=src, target=tgt, fn=fn, source_base=p, target_base=fn(p))
    if name == "egg_to_ball":
        if m % 2 != 0 or m < 2:
            raise DomainError("egg exponent must be a positive even integer")
        src = make_domain("ellipsoid", m=(m,))
        tgt = make_domain("ball", n=2)
        half = m // 2

        def fn(z):
            z = np.asarray(z, dtype=complex)
            out = np.empty_like(z)
            out[..., 0] = z[..., 0]
            out[..., 1] = z[..., 1] ** half
            return out

        p = np.zeros(2, dtype=complex)
        return MapUnderTest(source=src, target=tgt, fn=fn, source_base=p, target_base=fn(p))
    raise UnsupportedDomainError(f"unknown map name {name!r}")


def _check_map(mp: MapUnderTest) -> None:
    if not float(defining_function(mp.source, mp.source_base)) < 0.0:
        raise DomainError("source base point must be interior")
    if not float(defining_function(mp.target, mp.target_base)) < 0.0:
        raise DomainError("target base point must be interior")


def dilation(mp: MapUnderTest, xi, xi_target):
    """Boundary dilation lambda of the map at xi -> xi'.

    Returns (lam, uncertainty).  The log-dilation is the limit of
    k(z_j, p) - k'(f(z_j), p') along the inward normal ladder at xi;
    the liminf is realized as the extrapolated ladder limit.  The rungs
    are one stack: one interior check of their images and one distance
    call per side.  The uncertainty of the log-dilation is the
    extrapolation's plus half the widest rung's two sandwich widths
    together, as for the horofunction ladder.
    """
    _check_map(mp)
    zs = np.array(normal_ladder(mp.source, xi, _JS))
    ws = mp(zs)
    if not _inside_rows(mp.target, ws).all():
        raise DomainError("map sent a ladder point outside the target")
    ks, source_widths = geodesics_metrics._distance_rows(
        mp.source, zs, np.broadcast_to(mp.source_base, zs.shape))
    kt, target_widths = geodesics_metrics._distance_rows(
        mp.target, ws, np.broadcast_to(mp.target_base, ws.shape))
    est, unc = extrapolate([a - b for a, b in zip(ks, kt)], "dilation")
    widths = max([0.0] + [a + b for a, b in zip(source_widths, target_widths)])
    lam = float(np.exp(est))
    return lam, float(lam * (unc + 0.5 * widths))


def _base_kernels(mp: MapUnderTest, xi, xi_target):
    """Omega_xi(p) and Omega'_{xi'}(p') at the two base points."""
    return (kernels.poisson_kernel(mp.source, xi, mp.source_base).value,
            kernels.poisson_kernel(mp.target, xi_target, mp.target_base).value)


def normalized_dilation(mp: MapUnderTest, xi, xi_target) -> float:
    """alpha = lambda * Omega_xi(p) / Omega'_{xi'}(f-image base)."""
    lam, _ = dilation(mp, xi, xi_target)
    op, oq = _base_kernels(mp, xi, xi_target)
    return float(lam * op / oq)


def julia_checks(mp: MapUnderTest, xi, xi_target, samples) -> dict:
    """Verify both Julia inequalities and their consistency identity.

    samples: interior points of the source domain.  Returns a dict with
    the per-formulation suprema, the dilation, and boolean verdicts.
    The samples and the ladder rungs are one stack for each kernel.
    """
    _check_map(mp)
    xi = boundary_point(mp.source, xi)
    xi_target = boundary_point(mp.target, xi_target)
    lam, lam_unc = dilation(mp, xi, xi_target)
    log_lam = float(np.log(lam))
    op, oq = _base_kernels(mp, xi, xi_target)
    alpha = float(lam * op / oq)

    zs = _samples(mp, samples)
    k = len(zs)
    # The suprema are attained in the boundary limit, so fold the ladder
    # points into the sample set before comparing.
    pts = np.concatenate([zs, normal_ladder(mp.source, xi, _JS)])
    images = mp(pts)
    gaps = [a.value - b.value for a, b in zip(
        kernels._horofunction_rows(mp.target, xi_target, [mp.target_base], images),
        kernels._horofunction_rows(mp.source, xi, [mp.source_base], pts))]
    mj_gaps, ladder_gaps = gaps[:k], gaps[k:]
    pj_ratios = (kernels._kernel_rows(mp.source, xi, zs)
                 / kernels._kernel_rows(mp.target, xi_target, images[:k])).tolist()
    sup_est, sup_unc = extrapolate(ladder_gaps, "Julia gap")

    mj_sup = _worst(*mj_gaps, sup_est)
    pj_sup = _worst(*pj_ratios, float(np.exp(sup_est)) * abs(op) / abs(oq))
    tol = _JULIA_SLACK * (1.0 + abs(log_lam)) + lam_unc / max(lam, 1e-300) + sup_unc

    mj_holds = mj_sup <= log_lam + tol
    pj_holds = pj_sup <= alpha * (1.0 + _JULIA_SLACK) + abs(alpha) * tol
    consistency = abs(np.exp(mj_sup) * abs(op) / abs(oq) - pj_sup) / max(abs(pj_sup), 1e-300)

    return {
        "lambda": lam,
        "log_lambda": log_lam,
        "alpha": alpha,
        "mj_sup": float(mj_sup),
        "pj_sup": float(pj_sup),
        "mj_holds": bool(mj_holds),
        "pj_holds": bool(pj_holds),
        "sup_attained_gap": float(abs(sup_est - log_lam)),
        "consistency_residual": float(consistency),
    }


def _samples(mp: MapUnderTest, samples) -> np.ndarray:
    """The samples, points of the source domain, as one stack (k, n)."""
    return np.reshape([as_point(mp.source, z) for z in samples], (-1, mp.source.n))


def _omega_residuals(mp: MapUnderTest, xi, xi_target, samples) -> list:
    """|Omega'_{xi'}(f(z)) - Omega_xi(z)| at each sample, each kernel
    taken on all samples at once."""
    zs = _samples(mp, samples)
    oz = kernels._kernel_rows(mp.source, boundary_point(mp.source, xi), zs)
    ow = kernels._kernel_rows(mp.target, boundary_point(mp.target, xi_target), mp(zs))
    return np.abs(ow - oz).tolist()


def omega_preserving_residual(mp: MapUnderTest, xi, xi_target, samples) -> float:
    """max |Omega'_{xi'}(f(z)) - Omega_xi(z)| over the samples.

    Zero exactly when the map transports one kernel to the other, as the
    egg squaring map does at the axis point.
    """
    return float(_worst(0.0, *_omega_residuals(mp, xi, xi_target, samples)))


def gamma_lambda(lam: complex):
    """The curve t -> (t, lam sqrt(1-t^2)) in the 2-ball.

    For |lam| < 1 it lands at e1 but is only K'-convergent: the kernel
    limit along it is -2(1-|lam|^2) instead of the non-tangential -2.
    """
    lam = complex(lam)
    if abs(lam) >= 1.0:
        raise DomainError("the curve parameter must satisfy |lam| < 1")

    def curve(t):
        t = np.asarray(t, dtype=float)
        return np.stack([t + 0j, lam * np.sqrt(1.0 - t * t)], axis=-1)

    return curve


def special_curve_limit(lam: complex) -> dict:
    """Kernel and distance asymptotics along gamma_lambda in the 2-ball.

    Returns the extrapolated limit of Omega_{e1}(gamma(t)) (1-t), the
    predicted value -2(1-|lam|^2), and the limit of delta / (1-t).
    """
    dom = make_domain("ball", n=2)
    ts = np.array([1.0 - 10.0 ** (-j) for j in _JS])
    zs = gamma_lambda(lam)(ts)
    xi = np.array([1.0 + 0j, 0.0 + 0j])
    kest, kunc = extrapolate((kernels._kernel_rows(dom, xi, zs) * (1.0 - ts)).tolist(), "curve kernel")
    dest, dunc = extrapolate((boundary_distance(dom, zs) / (1.0 - ts)).tolist(), "curve delta ratio")
    expected = -2.0 * (1.0 - abs(lam) ** 2)
    return {
        "kernel_limit": float(kest),
        "kernel_uncertainty": float(kunc),
        "expected": float(expected),
        "delta_ratio": float(dest),
        "delta_ratio_uncertainty": float(dunc),
    }
