"""Complex geodesics, exact hyperbolic distances, and two-sided bounds.

Geodesic discs are holomorphic isometries of the unit disc into a
domain, parametrized so that the boundary point of interest is the
radial limit at 1.  Distances use the doubled normalization
k(0, t) = log((1+t)/(1-t)) throughout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

import numpy as np

from . import domain_core, hyperbolic_models
from .domain_core import (Domain, BoundaryPoint, _inside_rows, _row_norm, as_point, defining_function,
                          minkowski_gauge, require_interior)
from .errors import ConvergenceError, DomainError, UnsupportedDomainError


@dataclass(frozen=True, eq=False)
class GeodesicDisc:
    """A complex geodesic of a domain, as a map from the unit disc.

    endpoint is the radial limit at 1 (a boundary position) and
    normal_derivative the positive number lim <phi'(t), n> along
    t -> 1-, which controls the boundary kernel on the geodesic.
    derivative gives phi' by its closed form, as the map gives phi: at
    one disc point or an array of them.
    """

    domain: Domain
    endpoint: np.ndarray
    normal_derivative: float
    map_fn: Callable
    derivative_fn: Callable

    def __call__(self, zeta):
        zeta = np.asarray(zeta, dtype=complex)
        return self.map_fn(zeta)

    def derivative(self, zeta):
        zeta = np.asarray(zeta, dtype=complex)
        return self.derivative_fn(zeta)

    def __repr__(self):
        return (f"GeodesicDisc({self.domain.label}, endpoint="
                f"{np.array2string(self.endpoint, precision=4)}, "
                f"pN={self.normal_derivative:.6g})")


@dataclass(frozen=True)
class DistanceBound:
    """Two-sided bound on a hyperbolic distance; exact means lower == upper."""

    lower: float
    upper: float
    exact: bool

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise ConvergenceError(f"inverted distance bound: [{self.lower}, {self.upper}]")
        if self.exact and self.upper - self.lower > 1e-10:
            raise ConvergenceError("exact distance with non-trivial width")

    @property
    def value(self) -> float:
        return self.upper if self.exact else 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower


@functools.lru_cache(maxsize=16)
def _catalogue_domain(kind: str, size: int) -> Domain:
    """The egg of exponent size or the ball of dimension size, built once."""
    if kind == "ellipsoid":
        return domain_core.make_domain({"kind": "ellipsoid", "m": [size]})
    return domain_core.make_domain({"kind": "ball", "n": size})


def egg_geodesic(m: int, a) -> GeodesicDisc:
    """Catalogued geodesic of the egg |z0|^2 + |z1|^m < 1 ending at (1, 0).

    For any complex a the disc
        phi(zeta) = ((zeta+s)/(1+s), a ((1-zeta)/(1+s))^(2/m)),  s = |a|^m
    is a geodesic with radial endpoint (1, 0) and normal derivative
    1/(1+s); a = 0 gives the axis disc zeta -> (zeta, 0).
    """
    m = int(m)
    if m < 2 or m % 2 != 0:
        raise DomainError("egg exponent must be an even integer >= 2")
    a = complex(a)
    s = abs(a) ** m
    dom = _catalogue_domain("ellipsoid", m)

    def phi(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        first = (zeta + s) / (1.0 + s)
        second = a * np.power((1.0 - zeta) / (1.0 + s), 2.0 / m)
        return np.stack([first, second], axis=-1)

    def dphi(zeta):
        first = np.full(zeta.shape, 1.0 / (1.0 + s), dtype=complex)
        second = -a * (2.0 / m) / (1.0 + s) * np.power((1.0 - zeta) / (1.0 + s), 2.0 / m - 1.0)
        return np.stack([first, second], axis=-1)

    endpoint = np.array([1.0, 0.0], dtype=complex)
    return GeodesicDisc(domain=dom, endpoint=endpoint, normal_derivative=1.0 / (1.0 + s),
                        map_fn=phi, derivative_fn=dphi)


def ball_geodesic(z, xi) -> GeodesicDisc:
    """Geodesic of the unit ball through the interior point z ending at xi.

    The affine slice through z and xi meets the ball in a round disc;
    in slice coordinates the geodesic is an explicit disc automorphism
    with phi(0) = z and radial limit xi at 1.
    """
    if isinstance(xi, BoundaryPoint):
        xi_pos = xi.position
    else:
        xi_pos = np.asarray(xi, dtype=complex)
        if xi_pos.ndim == 0:
            xi_pos = xi_pos.reshape(1)
    n = xi_pos.shape[0]
    dom = _catalogue_domain("ball", n)
    if abs(np.linalg.norm(xi_pos) - 1.0) > 1e-9:
        raise DomainError("xi must lie on the unit sphere")
    z = as_point(dom, z)
    if np.linalg.norm(z) >= 1.0:
        raise DomainError("z must lie in the open ball")
    d = z - xi_pos
    dn2 = float(np.vdot(d, d).real)
    if dn2 < 1e-28:
        raise DomainError("z coincides with xi")
    # In the slice z + mu * d the ball is the disc |mu + conj(g)| < |g|.
    g = complex(np.sum(d * np.conj(xi_pos))) / dn2
    gb = np.conj(g)
    u = gb / abs(g)
    aa = (1.0 + gb) / abs(g)
    if abs(aa) >= 1.0:
        raise DomainError("z must lie in the open ball")
    c = (u - aa) / (1.0 - np.conj(aa) * u)

    def phi(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        B = (aa + c * zeta) / (1.0 + np.conj(aa) * c * zeta)
        mu = B * abs(g) - gb
        return xi_pos + mu[..., np.newaxis] * d

    def dphi(zeta):
        dB = c * (1.0 - abs(aa) ** 2) / (1.0 + np.conj(aa) * c * zeta) ** 2
        return (dB * abs(g))[..., np.newaxis] * d

    deriv = abs(g) * c * (1.0 - abs(aa) ** 2) / (1.0 + np.conj(aa) * c) ** 2 * g * dn2
    pN = complex(deriv)
    if abs(pN.imag) > 1e-9 * max(1.0, abs(pN.real)) or pN.real <= 0:
        raise ConvergenceError(f"ball geodesic normal derivative not positive real: {pN}")
    return GeodesicDisc(domain=dom, endpoint=xi_pos.astype(complex),
                        normal_derivative=float(pN.real), map_fn=phi, derivative_fn=dphi)


# ---------------------------------------------------------------------------
# Exact distances
# ---------------------------------------------------------------------------


def _ball_distance(z, w, then=None) -> list:
    """Hyperbolic distances of the unit ball in any dimension, of the
    pairs of stacks z and w (k, n), broadcast together, as a list; each
    is then(distance) where then is given.

    Each pair's distance is bit for bit the pair's alone: Python's
    complex scalars of the one-pair formula are written out in reals,
    numpy's complex products are never taken in place (numpy may reuse a
    large temporary as the output, and its in-place loop rounds
    differently) and _k_from_rho, then then, runs on each pair's floats.
    """
    z, w = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(w, dtype=complex))
    nz, nw = _row_norm(z), _row_norm(w)
    if (nz >= 1.0).any() or (nw >= 1.0).any():
        raise DomainError("points must lie in the open ball")
    conj_w = np.conj(w)
    zw = np.sum(z * conj_w, axis=-1)
    nw2 = nw * nw
    with np.errstate(divide="ignore", invalid="ignore"):
        # Moebius automorphism sending w to 0, applied to z.  Rows with
        # |w| or |z| below 1e-14 discard it and take the disc's
        # rho = |z - w| / |1 - <z, w>|, which there differs from the
        # ball's by less than |z|^2 |w|^2.
        pw = (zw.real / nw2 + 1j * (zw.imag / nw2))[..., None] * w
        qw = z - pw
        sw = np.sqrt(np.maximum(0.0, 1.0 - nw2))
        num = w - pw - sw[..., None] * qw
        vec = num / (1.0 - zw)[..., None]
    near_origin = (nw < 1e-14) | (nz < 1e-14)
    rho = np.where(near_origin, _row_norm(z - w) / np.hypot(1.0 - zw.real, zw.imag), _row_norm(vec))
    s = (1.0 - nz * nz) * (1.0 - nw2) / hyperbolic_models._hypot_sq(1.0 - zw.real, zw.imag)
    ks = map(hyperbolic_models._k_from_rho, np.minimum(rho, 1.0).tolist(), s.tolist())
    return list(ks if then is None else map(then, ks))


def egg_invert(m: int, z):
    """Parameters (a, zeta) of the catalogued egg geodesic through z.

    Every interior point of the egg lies on exactly one catalogued
    disc.  Returns (a, zeta) with phi_a(zeta) = z.
    """
    z0, z1 = complex(z[0]), complex(z[1])
    if abs(z1) < 1e-14:
        return 0.0 + 0.0j, z0
    a = z1 / np.power(1.0 - z0, 2.0 / m)
    s = abs(a) ** m
    zeta = z0 * (1.0 + s) - s
    return complex(a), complex(zeta)


def _egg_automorphism(dom: Domain, alpha, z):
    """Automorphisms of the egg moving axis points (alpha, 0, ...) to 0.

    alpha is one complex number and z a point, or alpha holds one
    number per point of a stack z (k, n); each row is bit for bit its
    point's own.
    """
    alpha = np.asarray(alpha, dtype=complex)
    z = np.asarray(z, dtype=complex)
    den = 1.0 - np.conj(alpha) * z[..., 0]
    out = np.empty_like(z)
    out[..., 0] = (z[..., 0] - alpha) / den
    # |alpha|^2 as Python's abs(complex) ** 2 rounds it.
    fac = 1.0 - hyperbolic_models._hypot_sq(alpha.real, alpha.imag)
    for j, mj in enumerate(dom.m):
        out[..., j + 1] = z[..., j + 1] * np.power(fac, 1.0 / mj) / np.power(den, 2.0 / mj)
    return out


def _is_axis(z):
    """Whether each point of z (..., n) lies on the z0 axis."""
    return np.max(np.abs(z[..., 1:]), axis=-1, initial=0.0) < 1e-13


def _egg_distance_exact(dom: Domain, z, w) -> list:
    """Exact egg distances of the pairs of stacks z and w (k, n), with
    None for each pair that is not catalogued.

    Each pair takes the first route that holds, as it does alone: the
    ball distance when every m_j is 2; the disc distance when both
    points lie on the z0 axis; the disc distance within a common
    catalogued geodesic (n = 2); the gauge of the other point after the
    automorphism moving the axis point to 0.  The last route takes all
    its pairs as one stack, with Python's log1p per pair (np.log1p
    rounds differently).
    """
    if all(mj == 2 for mj in dom.m):
        return _ball_distance(z, w)
    z_axis, w_axis = _is_axis(z), _is_axis(w)
    out = [None] * len(z)
    both = np.flatnonzero(z_axis & w_axis)
    if both.size:
        for i, d in zip(both.tolist(), hyperbolic_models.disc_distance(z[both, 0], w[both, 0]).tolist()):
            out[i] = d
    if dom.n == 2:
        m = dom.m[0]
        for i in np.flatnonzero(~(z_axis & w_axis)).tolist():
            az, zz = egg_invert(m, z[i])
            aw, zw = egg_invert(m, w[i])
            if abs(az - aw) <= 1e-11 * (1.0 + abs(az)):
                phi = egg_geodesic(m, (az + aw) / 2.0)
                ok_z = np.linalg.norm(phi(zz) - z[i]) <= 1e-10 * (1.0 + np.linalg.norm(z[i]))
                ok_w = np.linalg.norm(phi(zw) - w[i]) <= 1e-10 * (1.0 + np.linalg.norm(w[i]))
                if ok_z and ok_w and abs(zz) < 1.0 and abs(zw) < 1.0:
                    out[i] = hyperbolic_models.disc_distance(zz, zw)
    rows = [i for i in np.flatnonzero(z_axis | w_axis).tolist() if out[i] is None]
    if rows:
        axis_pts = np.where(z_axis[rows, None], z[rows], w[rows])
        others = np.where(z_axis[rows, None], w[rows], z[rows])
        mus = minkowski_gauge(dom, _egg_automorphism(dom, axis_pts[:, 0], others)).tolist()
        if max(mus) >= 1.0:
            raise ConvergenceError("gauge evaluation left the domain")
        for i, mu in zip(rows, mus):
            out[i] = math.log1p(mu) - math.log1p(-mu)
    return out


def _exact_distances(dom: Domain, z, w, then=None, pole=0.0) -> list:
    """The exact distances of the pairs of stacks z and w (k, n) of
    interior points, each bit for bit as kobayashi_distance finds it for
    the pair alone: a float, or None where no exact route applies.
    Pairs closer than 1e-15 are at distance 0 without evaluating any
    route.  Given then, each distance k of a pair apart is then(k)
    instead, and each pair closer than 1e-15 is pole.
    """
    apart = ~(_row_norm(z - w) < 1e-15)
    every = bool(apart.all())
    zs, ws = (z, w) if every else (z[apart], w[apart])
    k = dom.kind
    if k == "ball":
        vals = _ball_distance(zs, ws, then)
    else:
        if k == "disc":
            vals = hyperbolic_models.disc_distance(zs[:, 0], ws[:, 0]).tolist()
        elif k == "ellipsoid":
            vals = _egg_distance_exact(dom, zs, ws)
        elif k == "half_plane":
            vals = hyperbolic_models.halfplane_distance(zs[:, 0], ws[:, 0]).tolist()
        elif k == "annulus":
            vals = [hyperbolic_models.annulus_distance(dom.r, a[0], b[0]) for a, b in zip(zs, ws)]
        else:
            vals = [None] * len(zs)
        if then is not None:
            vals = [None if val is None else then(val) for val in vals]
    if every:
        return vals
    out = [pole] * len(z)
    for i, val in zip(np.flatnonzero(apart).tolist(), vals):
        out[i] = val
    return out


def _sandwich(dom: Domain, z, w) -> DistanceBound:
    """The supporting-function lower and inscribed-slice upper bounds of
    a pair of interior points (n,), for a pair that no exact route
    takes: the bounds' unchecked cores, since the callers have checked
    both points inside."""
    lo = _caratheodory_bound(dom, z, w)
    hi = _slice_bound(dom, z, w, 0)
    if hi < lo:
        # Both bounds carry conservative safety margins; inversion
        # signals a genuine failure.
        raise ConvergenceError(f"distance bounds crossed: [{lo}, {hi}]")
    return DistanceBound(lo, hi, False)


def _distance_rows(dom: Domain, z, w):
    """Values and widths of kobayashi_distance for the pairs of the
    stacks z and w (k, n) of interior points, as two lists: the exact
    routes take all pairs at once (_exact_distances), the sandwich each
    remaining pair alone.
    """
    values = _exact_distances(dom, z, w)
    widths = [0.0] * len(values)
    for i in [i for i, val in enumerate(values) if val is None]:
        bound = _sandwich(dom, z[i], w[i])
        values[i], widths[i] = bound.value, bound.width
    return values, widths


def kobayashi_distance(dom: Domain, z, w) -> DistanceBound:
    """Hyperbolic distance, exact where a catalogued method applies.

    Exact kinds: disc, half-plane, ball, annulus, and eggs for pairs on
    a common catalogued geodesic or with one point on the z0 axis.
    Everything else gets a supporting-function lower bound and an
    inscribed-slice upper bound.
    """
    z = require_interior(dom, z, "z")
    w = require_interior(dom, w, "w")
    [val] = _exact_distances(dom, z[None], w[None])
    if val is not None:
        return DistanceBound(val, val, True)
    return _sandwich(dom, z, w)


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _lattice_directions(n: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy unit vectors in C^n (read-only, cached)."""
    d = 2 * n
    # Root of x^(d+1) = x + 1 generalizes the plastic ratio.
    g = domain_core.brentq(lambda x: x ** (d + 1) - x - 1.0, 1.0, 2.0, xtol=1e-15)
    alphas = np.array([(1.0 / g) ** (j + 1) for j in range(d)])
    idx = np.arange(1, count + 1)[:, None]
    u = np.mod(0.5 + idx * alphas[None, :], 1.0)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    gauss = np.vectorize(NormalDist().inv_cdf, otypes=[float])(u)
    vecs = gauss[:, :n] + 1j * gauss[:, n:]
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    dirs = vecs / norms
    dirs.flags.writeable = False
    return dirs


@functools.lru_cache(maxsize=16)
def _lattice_support(kind: str, n: int, m: tuple):
    """Boundary points v / gauge(v) of the lattice directions of a
    balanced kind, and their unit normals (read-only, cached).
    """
    dom = Domain(kind=kind, n=n, m=m)
    dirs = _lattice_directions(n, 64 * n)
    pts = dirs / minkowski_gauge(dom, dirs)[:, None]
    normals = domain_core._unit_normals(dom, pts)
    pts.flags.writeable = False
    normals.flags.writeable = False
    return pts, normals


def _supporting_points(dom: Domain, z, w):
    """Boundary points whose tangent half-spaces contain the domain, and
    their unit normals, as two stacks (k, n).

    z and w are projected together, by one stacked boundary_project.
    The balanced kinds take the lattice points from _lattice_support
    beside the two feet; the annulus takes 64 points of the outer circle
    and the feet that lie on it; general_convex shoots the lattice
    directions from z as one fan (domain_core._shoot_fan).  The normals
    of the last two come from one gradient call.
    """
    feet = domain_core.boundary_project(dom, np.array([z, w]))[0]
    if dom.kind in ("disc", "ball", "ellipsoid"):
        pts, normals = _lattice_support(dom.kind, dom.n, dom.m)
        return np.concatenate([pts, feet]), np.concatenate([normals, domain_core._unit_normals(dom, feet)])
    if dom.kind == "annulus":
        thetas = np.exp(2j * np.pi * np.arange(64) / 64.0)
        pts = np.concatenate([thetas[:, None], feet[np.abs(feet[:, 0]) >= (1.0 + dom.r) / 2.0]])
    else:
        pts = np.concatenate([domain_core._shoot_fan(dom, z, _lattice_directions(dom.n, 64 * dom.n)), feet])
    return pts, domain_core._unit_normals(dom, pts)


def caratheodory_lower_bound(dom: Domain, z, w) -> float:
    """Lower distance bound from supporting half-spaces.

    Each boundary point eta with outward normal n gives the holomorphic
    map zeta -> <zeta - eta, n> into {Re < 0}, hence the half-plane
    distance of the images bounds the domain distance from below.
    Requires the half-space containment, which holds for the convex
    kinds and for the annulus through its outer circle.  On the disc,
    the ball and the ellipsoids the 64 n lattice points and their
    normals are built once per (kind, n, m); only the nearest boundary
    points of z and w are found per pair.  DomainError names z or w
    unless it lies inside (rho < 0; NaN fails), as in slice_upper_bound.
    """
    z = as_point(dom, z)
    w = as_point(dom, w)
    for name, ok in zip("zw", _inside_rows(dom, np.stack([z, w])).tolist()):
        if not ok:
            raise DomainError(f"{name} must lie inside the domain")
    return _caratheodory_bound(dom, z, w)


def _caratheodory_bound(dom: Domain, z, w) -> float:
    """caratheodory_lower_bound of two points (n,) inside, unchecked."""
    if np.linalg.norm(z - w) < 1e-15:
        return 0.0
    pts, normals = _supporting_points(dom, z, w)
    conj_n = np.conj(normals)
    pz = np.sum((z - pts) * conj_n, axis=-1)
    pw = np.sum((w - pts) * conj_n, axis=-1)
    inside = (pz.real < 0.0) & (pw.real < 0.0)
    best = 0.0
    # Python's max, which a NaN never wins (np.max would return it).
    for dist in hyperbolic_models.halfplane_distance(pz[inside], pw[inside]).tolist():
        best = max(best, dist)
    return best


_N_RAYS = 256
_N_CENTERS = 17


def _inscribed_disc_radius(dom: Domain, centers, direction) -> np.ndarray:
    """Certified radii of round discs inside the slices through centers.

    centers is a stack (k, n) of slice centres, all in one direction.
    The k * _N_RAYS rays march at once, one stack of points per
    evaluation of rho: each ray doubles until it leaves the domain, then
    bisects.  Each radius is the centre's minimal certified inside radius
    shrunk by cos(pi / _N_RAYS), the inradius factor of the inscribed
    polygon of a convex slice.

    Only that minimum counts, so every third bisection step first drops
    every ray whose inside end lo has reached its centre's smallest
    outside end (lo >= min(hi) over the centre's rays), and stacks only
    the remaining rays; once each centre holds one ray, the steps bisect
    with no drop test.  Between drop tests the kept rays bisect with no
    reduceat, repeat or compaction.  The bisection ends after 64 steps,
    or earlier once every remaining midpoint rounds to an end of its
    bracket: from then on no inside end moves.

    The radii are bit for bit those of the march without drops, in
    which every ray bisects on its own, as in each centre's own march,
    whatever steps the drop test runs on.  A ray's lo only grows, its hi
    only shrinks, and lo < hi throughout.  So when a ray r drops, with s
    the ray of smallest hi at that step, r ends on either march with
    lo(r) >= hi(s) > the final lo(s): the final minimum is never a
    dropped ray's, and the rays that never drop take exactly the steps
    they would take alone, under the same 64-step cap.  A sparser test
    keeps a superset of the rays, so the early end can only come later,
    and a step after a ray's midpoint rounds to an end of its bracket
    leaves that ray where it is (its lo is inside, its hi outside).
    """
    k, n = centers.shape
    thetas = np.exp(2j * np.pi * np.arange(_N_RAYS) / _N_RAYS)
    offsets = np.tile(thetas[:, None] * direction, (k, 1))
    base = np.repeat(centers, _N_RAYS, axis=0)
    # Centre i's remaining rays are the run of counts[i] rows from
    # first[i]; a centre keeps its ray of smallest hi, so no run is ever
    # empty, as reduceat needs.
    counts = np.full(k, _N_RAYS)
    first = np.arange(0, k * _N_RAYS, _N_RAYS)

    def inside(t):
        # t is real, so every loop of numpy's complex multiply, fused or
        # not, rounds t * offset as the real products t Re and t Im do.
        pts = np.empty(base.shape, dtype=complex)
        pts.real, pts.imag = t[:, None], 0.0
        pts *= offsets
        pts += base
        return defining_function(dom, pts) < 0.0

    lo = np.zeros(k * _N_RAYS)
    hi = np.full(k * _N_RAYS, 0.5)
    for _ in range(16):
        mask = inside(hi)
        if not mask.any():
            break
        lo = np.where(mask, hi, lo)
        hi = np.where(mask, 2.0 * hi, hi)
        if np.max(hi) > 64.0:
            raise UnsupportedDomainError("slice bound needs a bounded domain")
    for step in range(64):
        if step % 3 == 0 and lo.size > k:
            keep = lo < np.repeat(np.minimum.reduceat(hi, first), counts)
            if not keep.all():
                lo, hi, offsets, base = lo[keep], hi[keep], offsets[keep], base[keep]
                counts = np.add.reduceat(keep, first, dtype=np.intp)
                first = np.cumsum(counts) - counts
        mid = 0.5 * (lo + hi)
        if ((mid == lo) | (mid == hi)).all():
            break
        mask = inside(mid)
        lo = np.where(mask, mid, lo)
        hi = np.where(mask, hi, mid)
    return np.minimum.reduceat(lo, first) * math.cos(math.pi / _N_RAYS) - 1e-12


def slice_upper_bound(dom: Domain, z, w) -> float:
    """Upper distance bound from a round disc inside a complex slice.

    Tries inscribed discs centered at _N_CENTERS points along the
    segment [z, w], all found by one march (_inscribed_disc_radius)
    that bisects only the rays still able to set a centre's radius, and
    gives the radii of the full march bit for bit; when no center
    captures both points the segment is split and the bound chained by
    the triangle inequality.  Convex kinds only.
    """
    if dom.kind == "annulus":
        raise UnsupportedDomainError("slice bound requires a convex domain")
    if dom.kind == "half_plane":
        raise UnsupportedDomainError("slice bound requires a bounded domain")
    return _slice_bound(dom, require_interior(dom, z, "z"), require_interior(dom, w, "w"), 0)


def _slice_bound(dom: Domain, z, w, depth) -> float:
    """slice_upper_bound of two points (n,) inside a bounded convex
    domain, unchecked; depth counts the splits of [z, w] so far, whose
    split points lie inside by convexity."""
    sep = float(np.linalg.norm(z - w))
    if sep < 1e-15:
        return 0.0
    direction = (w - z) / sep
    centers = z + np.linspace(0.0, 1.0, _N_CENTERS)[:, None] * (w - z)
    radii = _inscribed_disc_radius(dom, centers, direction).tolist()
    conj_d = np.conj(direction)
    tzs = np.sum((z - centers) * conj_d, axis=-1).tolist()
    tws = np.sum((w - centers) * conj_d, axis=-1).tolist()
    # The two points in the unit disc of each center's slice that holds them.
    pairs = []
    for radius, tz, tw in zip(radii, tzs, tws):
        if radius <= 0.0 or abs(tz) >= radius or abs(tw) >= radius:
            continue
        pairs.append((tz / radius, tw / radius))
    best = math.inf
    if pairs:
        best = min([best] + hyperbolic_models.disc_distance(*np.array(pairs).T).tolist())
    if math.isinf(best):
        if depth >= 6:
            raise ConvergenceError("slice bound subdivision failed to capture the pair")
        mid = 0.5 * (z + w)
        return _slice_bound(dom, z, mid, depth + 1) + _slice_bound(dom, mid, w, depth + 1)
    return best


def asymptoticity_gap(phi: GeodesicDisc, psi: GeodesicDisc, t: float) -> float:
    """Distance between two geodesic rays at matched arc-length time t.

    Both geodesics must share the domain and the boundary endpoint; the
    time shift log(psi'_N / phi'_N) aligns the parametrizations
    s = tanh(t/2).  Raises when only non-exact bounds wider than the
    gap itself are available.
    """
    if phi.domain.label != psi.domain.label:
        raise DomainError("geodesics live in different domains")
    if np.linalg.norm(phi.endpoint - psi.endpoint) > 1e-9:
        raise DomainError("geodesics have different boundary endpoints")
    T = math.log(psi.normal_derivative / phi.normal_derivative)
    p = phi(math.tanh(0.5 * t))
    q = psi(math.tanh(0.5 * (t + T)))
    bound = kobayashi_distance(phi.domain, p, q)
    if not bound.exact and bound.width > max(1e-12, abs(bound.value)):
        raise ConvergenceError("asymptoticity gap inconclusive: distance bounds too wide")
    return bound.value
