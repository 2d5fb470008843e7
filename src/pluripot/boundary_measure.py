"""Boundary measure density, quadrature rules, and kernel reproduction.

The boundary form density at xi is
    4^{n-1} (n-1)! det(Levi form of rho) / ||grad rho||^{n-1},
which is invariant under rescaling the defining function.  Against this
weight the kernel power |Omega_xi(z)|^n reproduces pluriharmonic
functions from their boundary values, with total mass (2 pi)^n at every
interior point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import domain_core
from .domain_core import Domain, require_interior
from .errors import ConvergenceError, DomainError, UnsupportedDomainError

_MAX_DOUBLINGS = 4


@dataclass(frozen=True, eq=False)
class BoundaryQuadrature:
    """Quadrature nodes on a domain boundary.

    points: (K, n) complex array; weights: surface measure weights
    summing to the boundary volume; densities: the boundary form
    density at each node.
    """

    domain: Domain
    points: np.ndarray
    weights: np.ndarray
    densities: np.ndarray


def boundary_form_density(dom: Domain, xi) -> float:
    """Boundary form density at xi from the Levi form.

    In one variable the determinant is empty and the density is exactly 1.
    """
    return _density(dom, xi)[0]


def _density(dom: Domain, xi):
    """(boundary_form_density, its uncertainty) at xi from one Levi form
    (domain_core._levi).  With every eigenvalue of the Levi form L within
    the bound E of its error, |det L| lies below prod(|lambda_i| + E),
    and the uncertainty is that excess, scaled as the density is."""
    L, gn, err = domain_core._levi(dom, xi)
    if dom.n == 1:
        return 1.0, 0.0
    scale = 4.0 ** (dom.n - 1) * math.factorial(dom.n - 1) / gn ** (dom.n - 1)
    lam = np.abs(np.linalg.eigvalsh(L))
    return scale * float(np.linalg.det(L).real), scale * float(np.prod(lam + err) - np.prod(lam))


def _egg_density_analytic(dom: Domain, points) -> np.ndarray:
    """Closed-form density for 2-dimensional eggs (and the ball as m=2)."""
    m = dom.m[0] if dom.kind == "ellipsoid" else 2
    z0 = points[..., 0]
    z1 = points[..., 1]
    g0 = 2.0 * z0
    g1 = m * np.abs(z1) ** (m - 2) * z1
    gn2 = np.abs(g0) ** 2 + np.abs(g1) ** 2
    h11 = (m * m / 4.0) * np.abs(z1) ** (m - 2)
    levi = (np.abs(g1) ** 2 + h11 * np.abs(g0) ** 2) / gn2
    return 4.0 * levi / np.sqrt(gn2)


def build_quadrature(dom: Domain, resolution: int) -> BoundaryQuadrature:
    """Boundary quadrature with analytic charts.

    disc: uniform circle nodes.  ball (n = 2) and eggs: a single polar
    chart with Gauss-Legendre nodes in the latitude and uniform angles,
    using the exact chart Jacobian.
    """
    resolution = int(resolution)
    if resolution < 4:
        raise DomainError("resolution must be at least 4")

    if dom.kind == "disc":
        theta = 2.0 * np.pi * np.arange(resolution) / resolution
        pts = np.exp(1j * theta)[:, None]
        weights = np.full(resolution, 2.0 * np.pi / resolution)
        return BoundaryQuadrature(domain=dom, points=pts, weights=weights,
                                  densities=np.ones(resolution))

    if (dom.kind == "ball" and dom.n == 2) or (dom.kind == "ellipsoid" and dom.n == 2):
        m = dom.m[0] if dom.kind == "ellipsoid" else 2
        xg, wg = np.polynomial.legendre.leggauss(resolution)
        u = 0.25 * np.pi * (xg + 1.0)
        wu = wg * 0.25 * np.pi
        su, cu = np.sin(u), np.cos(u)
        radial1 = su ** (2.0 / m)
        # Gram determinant of the chart (u, theta0, theta1); the angular
        # tangent vectors are orthogonal to the latitude one.
        guu = su ** 2 + (2.0 / m) ** 2 * su ** (4.0 / m - 2.0) * cu ** 2
        sigma = cu * radial1 * np.sqrt(guu)

        th = 2.0 * np.pi * np.arange(resolution) / resolution
        e0 = np.exp(1j * th)
        # Node (latitude i, angle a of z0, angle b of z1), in that order.
        K = resolution
        pts = np.empty((K, K, K, 2), dtype=complex)
        pts[..., 0] = (cu[:, None] * e0)[:, :, None]
        pts[..., 1] = (radial1[:, None] * e0)[:, None, :]
        pts = pts.reshape(-1, 2)
        weights = np.repeat(wu * sigma * (2.0 * np.pi / K) ** 2, K * K)
        return BoundaryQuadrature(domain=dom, points=pts, weights=weights,
                                  densities=_egg_density_analytic(dom, pts))

    raise UnsupportedDomainError(f"no quadrature chart for {dom.label}")


def reproduce_pluriharmonic(dom: Domain, F, z, quad: BoundaryQuadrature) -> float:
    """Reproduce a pluriharmonic F at z from boundary values.

    Computes (2 pi)^{-n} sum_i w_i density_i |Omega_{xi_i}(z)|^n F(xi_i).
    F must accept an array of boundary points with shape (K, n).
    Closed-form kernels at arbitrary boundary points exist for the disc
    and the ball, so those are the supported kinds.
    """
    return _reproducer(dom, z, quad)(F)


def _reproducer(dom: Domain, z, quad: BoundaryQuadrature):
    """reproduce_pluriharmonic at z as a function of F alone.

    The kernel weights w_i density_i |Omega_{xi_i}(z)|^n are computed
    here, once, for every F the function is then called on.
    """
    if quad.domain.label != dom.label:
        raise DomainError("quadrature was built for a different domain")
    if dom.kind not in ("disc", "ball"):
        raise UnsupportedDomainError("kernel reproduction needs the disc or the ball")
    z = require_interior(dom, z, "z")
    n = dom.n
    inner = quad.points @ np.conj(z)
    omega_abs = (1.0 - float(np.linalg.norm(z)) ** 2) / np.abs(1.0 - inner) ** 2
    weighted = quad.weights * quad.densities * omega_abs ** n

    def reproduce(F) -> float:
        total = np.sum(weighted * np.asarray(F(quad.points), dtype=float))
        return float(total / (2.0 * np.pi) ** n)
    return reproduce


def calibrate_quadrature(dom: Domain, F, z, start_resolution=16, tol=1e-3):
    """Refine the quadrature until the reproduced value settles.

    Doubles the resolution, at most _MAX_DOUBLINGS times, until
    successive values differ by less than tol; returns (value,
    resolution, history).
    """
    res = int(start_resolution)
    history = []
    prev = None
    for _ in range(_MAX_DOUBLINGS + 1):
        quad = build_quadrature(dom, res)
        val = reproduce_pluriharmonic(dom, F, z, quad)
        history.append(val)
        if prev is not None and abs(val - prev) < tol:
            return val, res, history
        prev = val
        res *= 2
    raise ConvergenceError(f"quadrature refinement did not settle within {tol:g}")

