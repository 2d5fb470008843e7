"""Model domains, boundary geometry, and the line type probe.

Points of C^n are numpy complex vectors.  A domain carries a real-valued
defining function rho, negative inside and zero on the boundary.  The
real gradient of rho is encoded as the complex vector g = 2 drho/dzbar,
so that Re<v, g> differentiates rho along the real direction v and
||g|| equals the Euclidean norm of the real gradient.  The pairing
<z, w> = sum_j z_j conj(w_j) is Hermitian.

Supported kinds: disc, half_plane (Re z < 0 in C), ball, ellipsoid
(|z_0|^2 + sum_j |z_j|^{m_j} < 1 with even m_j), annulus (r < |z| < 1),
and general_convex (user-supplied defining function).
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _jets, _stencils
from .errors import ConvergenceError, DomainError, UnsupportedDomainError

_EPS = float(np.finfo(float).eps)

KINDS = ("disc", "half_plane", "ball", "ellipsoid", "annulus", "general_convex")

# |rho| allowed at a point accepted as a boundary point.
_BOUNDARY_TOL = 1e-9
# Largest contact order the line type probe reports.
_MAX_LINE_TYPE = 8


@dataclass(frozen=True, eq=False)
class Domain:
    """A model domain in C^n."""

    kind: str
    n: int
    m: tuple = ()
    r: float = 0.0
    rho_fn: Optional[Callable] = None

    @property
    def label(self) -> str:
        if self.kind == "ball":
            return f"ball{self.n}"
        if self.kind == "ellipsoid":
            if self.n == 2:
                return f"egg{self.m[0]}"
            return "ellipsoid[" + ",".join(str(mj) for mj in self.m) + "]"
        if self.kind == "annulus":
            return f"annulus[r={self.r:g}]"
        return self.kind

    def __repr__(self):
        return f"Domain({self.label})"


@dataclass(frozen=True, eq=False)
class BoundaryPoint:
    """A boundary point with its outward unit normal and tangent frame.

    tangent_frame has shape (n-1, n); its rows complete the normal to a
    Hermitian-orthonormal basis of C^n.  It is built on first use: few
    callers read it.
    """

    position: np.ndarray
    normal: np.ndarray

    @functools.cached_property
    def tangent_frame(self) -> np.ndarray:
        return _tangent_frame(self.normal)

    def __repr__(self):
        pos = np.array2string(self.position, precision=6, separator=",")
        return f"BoundaryPoint({pos})"


def _shorthand(text: str) -> dict:
    t = text.strip().lower()
    if t == "disc":
        return {"kind": "disc"}
    if t == "half_plane":
        return {"kind": "half_plane"}
    try:
        if t.startswith("ball") and t[4:].isdecimal():
            return {"kind": "ball", "n": int(t[4:])}
        if t.startswith("egg") and t[3:].isdecimal():
            return {"kind": "ellipsoid", "m": [int(t[3:])]}
    except ValueError:  # more digits than int() reads
        pass
    if t in ("ellipsoid", "annulus", "ball", "general_convex"):
        return {"kind": t}
    raise DomainError(f"unrecognized domain shorthand: {text!r}")


def make_domain(spec, *, n=None, m=None, r=None, rho=None) -> Domain:
    """Build a Domain from a dict or shorthand string.

    Dict keys are restricted to kind, n, m, r; unknown keys are
    rejected.  Keyword arguments fill in missing entries (the CLI path).
    general_convex additionally needs a vectorized defining function via
    rho=; its gradient is taken by central differences.
    """
    if isinstance(spec, str):
        spec = _shorthand(spec)
    if not isinstance(spec, dict):
        raise DomainError("domain spec must be a dict or shorthand string")
    unknown = set(spec) - {"kind", "n", "m", "r"}
    if unknown:
        raise DomainError(f"unknown domain spec fields: {sorted(unknown)}")
    kind = spec.get("kind")
    if kind not in KINDS:
        raise DomainError(f"unknown domain kind: {kind!r}")

    n_val = spec.get("n", n)
    m_val = spec.get("m", m)
    r_val = spec.get("r", r)

    if kind == "disc":
        if n_val not in (None, 1):
            raise DomainError("disc requires n = 1")
        return Domain(kind="disc", n=1)

    if kind == "half_plane":
        if n_val not in (None, 1):
            raise DomainError("half_plane requires n = 1")
        return Domain(kind="half_plane", n=1)

    if kind == "ball":
        if n_val is None:
            raise DomainError("ball requires n")
        n_val = int(n_val)
        if n_val < 1:
            raise DomainError("ball requires n >= 1")
        if n_val == 1:
            return Domain(kind="disc", n=1)
        return Domain(kind="ball", n=n_val)

    if kind == "ellipsoid":
        if m_val is None:
            raise DomainError("ellipsoid requires the exponent list m")
        if isinstance(m_val, (int, np.integer)):
            m_val = [int(m_val)]
        m_tuple = tuple(int(mj) for mj in m_val)
        if len(m_tuple) < 1:
            raise DomainError("ellipsoid requires at least one exponent")
        for mj in m_tuple:
            if mj < 2 or mj % 2 != 0:
                raise DomainError(f"ellipsoid exponents must be even and >= 2, got {mj}")
        expected_n = len(m_tuple) + 1
        if n_val is not None and int(n_val) != expected_n:
            raise DomainError(f"ellipsoid with {len(m_tuple)} exponents requires n = {expected_n}")
        return Domain(kind="ellipsoid", n=expected_n, m=m_tuple)

    if kind == "annulus":
        if r_val is None:
            raise DomainError("annulus requires the inner radius r")
        r_f = float(r_val)
        if not (0.0 < r_f < 1.0):
            raise DomainError("annulus radius must satisfy 0 < r < 1")
        return Domain(kind="annulus", n=1, r=r_f)

    # general_convex
    if rho is None:
        raise DomainError("general_convex requires a defining function via rho=")
    if n_val is None:
        raise DomainError("general_convex requires n")
    return Domain(kind="general_convex", n=int(n_val), rho_fn=rho)


def as_point(domain: Domain, z) -> np.ndarray:
    """Coerce z to a complex vector of the domain's dimension."""
    arr = np.asarray(z, dtype=complex)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.shape != (domain.n,):
        raise DomainError(f"expected a point of C^{domain.n}, got shape {arr.shape}")
    return arr


def _as_points(domain: Domain, z) -> np.ndarray:
    """z as one point (n,) or a stack (..., n) of points of the domain."""
    pts = np.asarray(z, dtype=complex)
    if pts.ndim <= 1:
        return as_point(domain, pts)
    if pts.shape[-1] != domain.n:
        raise DomainError(f"points must have last dimension {domain.n}")
    return pts


def defining_function(domain: Domain, z):
    """Evaluate rho at one point or an array of points (shape (..., n)).

    On the disc, ball, half-plane and ellipsoid z may also be a
    _jets.JetPoint, which gives the jet of rho: one expression serves
    values and exact derivatives.
    """
    if isinstance(z, _jets.JetPoint):
        pts = z
    else:
        pts = np.asarray(z, dtype=complex)
        if pts.ndim == 0:
            pts = pts.reshape(1)
        if pts.shape[-1] != domain.n:
            raise DomainError(f"points must have last dimension {domain.n}")
    k = domain.kind
    if k in ("disc", "ball"):
        return _sq_norm(pts) - 1.0
    if k == "half_plane":
        return _jets.coords(pts)[0].real
    if k == "annulus":
        mag = np.abs(pts[..., 0][()])
        return np.maximum(mag - 1.0, domain.r - mag)
    if k == "ellipsoid":
        w = _jets.coords(pts)
        acc = _even_power(w[0], 2)
        for j, mj in enumerate(domain.m):
            acc = acc + _even_power(w[j + 1], mj)
        return acc - 1.0
    return domain.rho_fn(pts)


def _sq_norm(pts):
    """sum_j |z_j|^2 of each point of a stack, or of a JetPoint's points.

    On an array each |z_j| is np.abs, so a point rounds as in any stack.
    """
    if isinstance(pts, _jets.JetPoint):
        return sum(_even_power(w, 2) for w in pts.coords)
    return np.sum(np.abs(pts) ** 2, axis=-1)


def _even_power(w, e):
    """|w|^e for even e >= 2 as real products: |w|^2 = x x + y y, then
    repeated products of it.  These round alike on one point and on any
    stack; numpy's ** does not (a 0-d operand rounds unlike an array).
    w may be a _jets.Coord, whose power is a jet."""
    sq = w.real * w.real + w.imag * w.imag
    out = sq
    for _ in range(e // 2 - 1):
        out = out * sq
    return out


def gradient(domain: Domain, z):
    """The complex-encoded real gradient g = 2 drho/dzbar, vectorized."""
    pts = np.asarray(z, dtype=complex)
    if pts.ndim == 0:
        pts = pts.reshape(1)
    k = domain.kind
    if k in ("disc", "ball"):
        return 2.0 * pts
    if k == "half_plane":
        return np.ones_like(pts)
    if k == "annulus":
        mag = np.abs(pts[..., 0])
        if np.any(mag == 0):
            raise DomainError("annulus gradient undefined at the origin")
        sign = np.where(mag >= (1.0 + domain.r) / 2.0, 1.0, -1.0)
        return (sign * pts[..., 0] / mag)[..., np.newaxis]
    if k == "ellipsoid":
        out = np.empty_like(pts)
        out[..., 0] = 2.0 * pts[..., 0]
        for j, mj in enumerate(domain.m):
            w = pts[..., j + 1]
            out[..., j + 1] = mj * w if mj == 2 else mj * _even_power(w, mj - 2) * w
        return out
    return _fd_gradient(domain, pts)


def _fd_gradient(domain: Domain, pts):
    """Central differences of step 1e-7, each point's 4n stencil points
    taken by one rho call: a row of a stack is the point alone, bit for
    bit (one call over the whole stack would tie a row to the rounding
    of its stack)."""
    h = 1e-7
    n = domain.n
    eye = h * np.eye(n)
    steps = np.concatenate([eye, -eye, 1j * eye, -1j * eye])
    flat = pts.reshape(-1, n)
    out = np.empty_like(flat)
    for i, z in enumerate(flat):
        vals = defining_function(domain, z + steps)
        out.real[i] = (vals[:n] - vals[n:2 * n]) / (2 * h)
        out.imag[i] = (vals[2 * n:3 * n] - vals[3 * n:]) / (2 * h)
    return out.reshape(pts.shape)


def require_interior(domain: Domain, z, name) -> np.ndarray:
    """z as a point of the domain; DomainError naming it unless rho(z) < 0
    (NaN fails, and so does an overflow to inf, without numpy's warning)."""
    pt = as_point(domain, z)
    with np.errstate(over="ignore"):
        inside = float(defining_function(domain, pt)) < 0.0
    if not inside:
        raise DomainError(f"{name} must lie inside the domain")
    return pt


def _inside_rows(domain: Domain, pts) -> np.ndarray:
    """Whether each point of a stack (k, n) lies inside the domain, as
    require_interior decides for the point alone (rho < 0; NaN fails).

    A built-in kind takes rho once on the whole stack, which rounds as on
    each point alone.  A general_convex domain checks each point alone:
    its rho_fn may round in any way on a stack.
    """
    with np.errstate(over="ignore"):
        if domain.kind == "general_convex":
            return np.array([float(defining_function(domain, pt)) < 0.0 for pt in pts], dtype=bool)
        return defining_function(domain, pts) < 0.0


_BRENT_RTOL = 4 * _EPS
_BRENT_MAXITER = 100


def _brent(a, b, xtol):
    """Brent's method on one problem, as a generator: it yields each x at
    which f is wanted, is sent f(x) (a float, not NaN), and returns the
    root.  brentq drives one problem with it, _brentq_rows many in
    lockstep, so the step arithmetic lives here alone.
    """
    xpre, xcur = float(a), float(b)
    fpre = yield xpre
    fcur = yield xcur
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ConvergenceError(f"root finder: f({a!r}) and f({b!r}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant step
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # IEEE division gives inf or NaN: bisect below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = yield xcur
    raise ConvergenceError(f"root finder: no convergence in {_BRENT_MAXITER} steps")


def brentq(f, a, b, xtol) -> float:
    """Root of the scalar function f in [a, b] by Brent's method.

    R. P. Brent, Algorithms for Minimization without Derivatives (1973),
    ch. 4, ported step for step from the widely used C routine brentq.c
    with its default rtol and maxiter, so that roots agree with it bit for
    bit (the tests compare the two).  Converged when the bracket
    half-width drops below (xtol + _BRENT_RTOL |x|) / 2, or on an exact
    zero of f.  Raises ConvergenceError when f(a) and f(b) have the same
    sign, when f returns NaN, or after _BRENT_MAXITER steps.
    """
    steps = _brent(a, b, xtol)
    x = next(steps)
    while True:
        fx = float(f(x))
        if math.isnan(fx):
            raise ConvergenceError(f"root finder: f({x!r}) is NaN")
        try:
            x = steps.send(fx)
        except StopIteration as done:
            return done.value


def _brentq_rows(f, a, b, xtol) -> np.ndarray:
    """Roots of k problems in lockstep, each bit for bit brentq's alone.

    Problem i brackets its root in [a[i], b[i]].  f(x, rows) evaluates
    the problems whose indices are the array rows at the array x, in one
    call per Brent step for all problems still open.  A problem fails
    where brentq would raise (f is NaN, a bracket with one sign, no
    convergence): its root is NaN and the others go on.
    """
    solvers = [_brent(ai, bi, xtol) for ai, bi in zip(a.tolist(), b.tolist())]
    rows = list(range(len(solvers)))
    xs = [next(s) for s in solvers]
    roots = np.full(len(solvers), math.nan)
    while rows:
        fxs = f(np.array(xs), np.array(rows, dtype=np.intp)).tolist()
        open_rows, open_xs = [], []
        for i, x, fx in zip(rows, xs, fxs):
            if math.isnan(fx):
                continue
            try:
                open_xs.append(solvers[i].send(fx))
                open_rows.append(i)
            except StopIteration as done:
                roots[i] = done.value
            except ConvergenceError:
                pass
        rows, xs = open_rows, open_xs
    return roots


def _row_norm(x):
    """np.linalg.norm of each row of a complex stack (..., n), bit for bit.

    The row-wise matmul takes the same real dot products as norm does
    for one vector (norm(axis=-1) sums in another order).
    """
    re, im = x.real, x.imag
    return np.sqrt(np.matmul(re[..., None, :], re[..., :, None])[..., 0, 0]
                   + np.matmul(im[..., None, :], im[..., :, None])[..., 0, 0])


def minkowski_gauge(domain: Domain, z):
    """Gauge of the balanced kinds: the t > 0 with z / t on the boundary.

    z is one point (the gauge is a float) or a stack (..., n) of points
    (an array of their gauges); one point is a stack of one.  An
    ellipsoid's gauge is the root of the excess sum_j (|z_j|/t)^e_j - 1
    by Brent's method, all rows in lockstep.  Non-finite coordinates
    raise DomainError.
    """
    if domain.kind not in ("disc", "ball", "ellipsoid"):
        raise UnsupportedDomainError(f"gauge undefined for kind {domain.kind}")
    pts = _as_points(domain, z)
    if not np.isfinite(pts).all():
        raise DomainError("the gauge needs finite coordinates")
    gauges = _stacked_gauge(domain, pts.reshape(-1, domain.n))
    return float(gauges[0]) if pts.ndim == 1 else gauges.reshape(pts.shape[:-1])


def _stacked_gauge(domain: Domain, pts):
    """The gauges of a finite stack (k, n): each row's bracket and Brent
    steps, each step taken for all rows that still need it at once."""
    if domain.kind != "ellipsoid":
        return _row_norm(pts)
    mags = np.abs(pts)
    top = mags.max(axis=1)
    gauges = np.zeros(len(pts))
    live = np.flatnonzero(top > 0.0)
    mags = mags[live]
    ex = np.array((2.0,) + domain.m)

    def excess(mu, rows):
        return sum(((mags[rows] / mu[:, None]) ** ex).T) - 1.0

    every = np.arange(len(live))
    lo = top[live]
    low = excess(lo, every) < 0.0
    while low.any():
        lo[low] *= 0.5
        low[low] = excess(lo[low], every[low]) < 0.0
    hi = 2.0 * lo
    high = excess(hi, every) > 0.0
    while high.any():
        hi[high] *= 2.0
        high[high] = excess(hi[high], every[high]) > 0.0
    gauges[live] = _brentq_rows(excess, lo, hi, xtol=1e-300)
    if np.isnan(gauges).any():
        raise ConvergenceError("gauge: the root finder failed on a row")
    return gauges


def unit_normal(domain: Domain, position) -> np.ndarray:
    g = gradient(domain, as_point(domain, position))
    norm = float(np.linalg.norm(g))
    if norm == 0.0:
        raise DomainError("vanishing gradient; not a smooth boundary point")
    return g / norm


def _unit_normals(domain: Domain, pts) -> np.ndarray:
    """Outward unit normals of a stack (k, n) of boundary points, from one
    gradient call; each row is bit for bit unit_normal's.  A vanishing
    gradient raises DomainError, as there."""
    g = gradient(domain, pts)
    norms = _row_norm(g)
    if (norms == 0.0).any():
        raise DomainError("vanishing gradient; not a smooth boundary point")
    return g / norms[:, None]


def _tangent_frame(normal: np.ndarray) -> np.ndarray:
    """Rows form a Hermitian-orthonormal basis of the complex tangent space."""
    n = normal.shape[0]
    if n == 1:
        return np.zeros((0, 1), dtype=complex)
    cols = np.concatenate([normal.reshape(n, 1), np.eye(n, dtype=complex)], axis=1)
    q, _ = np.linalg.qr(cols)
    return q[:, 1:n].T.copy()


def boundary_point(domain: Domain, position) -> BoundaryPoint:
    """Package a boundary position with its normal (the frame follows on use).

    The position must be finite and satisfy |rho| <= _BOUNDARY_TOL.  A
    BoundaryPoint is returned unchanged.
    """
    if isinstance(position, BoundaryPoint):
        return position
    pos = as_point(domain, position)
    if not np.all(np.isfinite(pos)):
        raise DomainError("a boundary point must have finite coordinates")
    resid = float(abs(defining_function(domain, pos)))
    if resid > _BOUNDARY_TOL:
        raise DomainError(f"not a boundary point: |rho| = {resid:.3e} exceeds {_BOUNDARY_TOL:g}")
    return BoundaryPoint(position=pos, normal=unit_normal(domain, pos))


def boundary_distance(domain: Domain, z):
    """Euclidean distance from interior points to the boundary: the
    distances of boundary_project, one point taken as a stack of one.

    z is one point (the distance is a float) or a stack (..., n) of
    points (an array of their distances).
    """
    pts = _as_points(domain, z)
    if pts.ndim == 1:
        return float(boundary_project(domain, pts[None])[1][0])
    return boundary_project(domain, pts)[1]


def boundary_project(domain: Domain, z):
    """Nearest boundary points of interior points.

    z is one point, giving (BoundaryPoint, delta) with z = xi - delta *
    n_xi, or a stack (..., n), giving the feet (..., n) and distances
    (...) as arrays; one point is a stack of one.  A row that is not
    inside (rho < 0, as _inside_rows decides; NaN fails) raises
    DomainError.  Disc, ball, half-plane and annulus have closed forms;
    a centre of the disc or ball (|z| < 1e-12) gets e1, one of its
    nearest points, at distance 1 - |z|.  An ellipsoid is solved
    globally in the moduli |z_j| (_ellipsoid_nearest), its centre
    getting e1 at distance 1.  A general_convex domain shoots each row
    along the current normal until the foot is a fixed point
    (_shooting_foot), which finds a nearest point only locally.
    """
    pts = _as_points(domain, z)
    flat = pts.reshape(-1, domain.n)
    if not _inside_rows(domain, flat).all():
        raise DomainError("boundary_project requires an interior point")
    k = domain.kind
    if k in ("disc", "ball"):
        norm = _row_norm(flat)[:, None]
        feet = np.zeros_like(flat)
        feet[:, 0] = 1.0
        np.divide(flat, norm, out=feet, where=norm >= 1e-12)
        dist = 1.0 - norm[:, 0]
    elif k == "half_plane":
        feet = 1j * flat.imag
        dist = -flat[:, 0].real
    elif k == "annulus":
        # hypot rounds as abs of one complex coordinate does (np.abs does not).
        mag = np.hypot(flat[:, 0].real, flat[:, 0].imag)
        douter, dinner = 1.0 - mag, mag - domain.r
        phase = flat[:, 0] / mag
        feet = np.where(douter <= dinner, phase, domain.r * phase)[:, None]
        dist = np.minimum(douter, dinner)
    elif k == "ellipsoid":
        mags = np.abs(flat)
        feet = np.zeros_like(flat)
        feet[:, 0] = 1.0
        live = mags.max(axis=1) >= 1e-12
        a = mags[live]
        phase = np.divide(flat[live], a, out=np.ones_like(a, dtype=complex), where=a > 0.0)
        feet[live] = phase * _ellipsoid_nearest(domain.m, a)
        dist = np.ones(len(flat))
        dist[live] = _row_norm(flat[live] - feet[live])
    else:
        feet = np.array([_shooting_foot(domain, pt) for pt in flat], dtype=complex).reshape(flat.shape)
        dist = _row_norm(flat - feet)
    if pts.ndim == 1:
        return boundary_point(domain, feet[0]), float(dist[0])
    return feet.reshape(pts.shape), dist.reshape(pts.shape[:-1])


def _shooting_foot(domain: Domain, pt):
    """Boundary point of a general_convex domain whose normal line passes
    through the interior point pt: shoot from pt along the normal of the
    last foot until the foot moves by at most 1e-14, for at most 100
    shots.  Raises ConvergenceError when the last shot still moved the
    foot by more than 1e-8.
    """
    xi = _any_outward_seed(domain, pt)
    for _ in range(100):
        xi_new = _shoot_to_boundary(domain, pt, unit_normal(domain, xi))
        step = float(np.linalg.norm(xi_new - xi))
        xi = xi_new
        if step <= 1e-14:
            break
    # The 1e-7 central-difference normal leaves a settled foot moving by
    # up to about 1e-9 per shot (points of a ball).  Slower iterations are
    # refused: on egg4, 37 of 200 random points still move by 1e-8 to
    # 5e-3 after 100 shots.
    if step > 1e-8:
        raise ConvergenceError("boundary projection did not converge")
    return xi


@functools.lru_cache(maxsize=16)
def _moduli_table(m):
    """Points of the moduli boundary sum_j s_j^{e_j} = 1, e = (2,) + m, s >= 0.

    The points lie along the directions v_j = sin(pi k_j / 2N) for the
    compositions k of N into n parts: for n = 2 these are N + 1 equally
    spaced angles with N = 256, for larger n N is the largest (at most
    256) that keeps the table at 4096 points or fewer.  Returns (points,
    neighbours): row i of neighbours holds the indices of the grid
    neighbours k + e_i - e_j of point i, padded with i itself.  Built
    once per exponent tuple; both arrays are read-only.
    """
    n = len(m) + 1
    N = 256
    while math.comb(N + n - 1, n - 1) > 4096:
        N -= 1
    # Stars and bars: the bar positions of a composition of N into n parts.
    comps = [tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (N + n - 1,)))
             for bars in itertools.combinations(range(N + n - 1), n - 1)]
    index = {k: i for i, k in enumerate(comps)}
    width = n * (n - 1)
    nbrs = np.empty((len(comps), width), dtype=np.intp)
    for i, k in enumerate(comps):
        row = []
        for a in range(n):
            for b in range(n):
                if a != b and k[b] > 0:
                    moved = list(k)
                    moved[a] += 1
                    moved[b] -= 1
                    row.append(index[tuple(moved)])
        nbrs[i] = row + [i] * (width - len(row))
    v = np.sin(0.5 * np.pi * np.array(comps, dtype=float) / N)
    ex = np.array((2.0,) + tuple(float(mj) for mj in m))
    # Scale each direction onto the boundary: Newton on the convex,
    # increasing sum_j (v_j t)^e_j - 1, from t = 1 / max v (above the root).
    t = 1.0 / v.max(axis=1)
    for _ in range(100):
        vt = v * t[:, None]
        f = np.sum(vt ** ex, axis=1) - 1.0
        t_new = t - f / (np.sum(ex * vt ** ex, axis=1) / t)
        if np.array_equal(t_new, t):
            break
        t = t_new
    points = v * t[:, None]
    points.flags.writeable = False
    nbrs.flags.writeable = False
    return points, nbrs


def _ellipsoid_nearest(m, a):
    """Moduli s (k, n) of the nearest boundary points to the rows of the
    moduli a (k, n), none of them all zero.

    Newton on the KKT system s - lam grad rho(s) = a, rho(s) = 0 runs
    from every local minimum of |s - a| over the seed table, found for
    a block of rows by one distance matrix against the table and one
    neighbour test; all (row, seed) runs are one array Newton
    (_kkt_newton), and the nearest converged point wins, the first seed
    on a tie.  A seed whose Newton run does not converge is passed over.
    A row where none converges, or whose winner is farther than its
    nearest table point, raises ConvergenceError.
    """
    table, nbrs = _moduli_table(m)
    block = max(1, 262144 // nbrs.size)  # rows per (block, T, n(n - 1)) neighbour test
    rows, seeds, nearest = [], [], []
    for start in range(0, max(len(a), 1), block):  # one block even for no rows
        d2 = np.sum((table - a[start:start + block, None, :]) ** 2, axis=-1)
        local = d2 <= d2[:, nbrs[:, 0]]
        for j in range(1, nbrs.shape[1]):
            local &= d2 <= d2[:, nbrs[:, j]]
        r, i = np.nonzero(local)
        rows.append(r + start)
        seeds.append(i)
        nearest.append(d2.min(axis=1))
    # Pairs run row by row, each row's seeds in table order.
    rows, seeds = np.concatenate(rows), np.concatenate(seeds)
    s, converged = _kkt_newton((2,) + tuple(m), a[rows].T, table[seeds].T)
    dist2 = _column_sum(np.float_power(s - a[rows].T, 2))
    dist2[~(converged & (dist2 < math.inf))] = math.inf
    best_d2 = np.full(len(a), math.inf)
    np.minimum.at(best_d2, rows, dist2)
    # The first pair of each row that attains the row's least distance.
    hits = np.flatnonzero(dist2 == best_d2[rows])
    winner = hits[np.diff(rows[hits], prepend=-1) > 0]
    lost = ~(np.sqrt(best_d2) <= np.sqrt(np.concatenate(nearest)) + 1e-12)
    if lost.any():
        if best_d2[np.argmax(lost)] == math.inf:
            raise ConvergenceError("ellipsoid nearest-point Newton did not converge")
        raise ConvergenceError("ellipsoid projection lost the nearest boundary point")
    return s[:, winner].T


def _column_sum(x):
    """Sum over the coordinates of x (n, P), left to right from 0.0, as
    Python's sum adds the n floats of one pair."""
    acc = 0.0 + x[0]
    for xj in x[1:]:
        acc = acc + xj
    return acc


def _kkt_newton(ex, a, s):
    """Newton on s_j - lam e_j s_j^(e_j - 1) = a_j, sum_j s_j^e_j = 1,
    for P pairs of moduli a and seeds s at once, both (n, P).

    Returns the final s (n, P) and whether each run converged: its
    largest step is at most 1e-13 within 50 steps.  A run stops
    unconverged when its step is not finite or its Newton system is
    singular.  Each run is bit for bit the same run in Python floats:
    every power is float_power (it rounds as Python's float ** does; the
    array ** does not), every sum adds the coordinates left to right,
    and the largest step is taken as Python's max takes it.
    """
    e = np.array(ex, dtype=float)[:, None]
    e1, e2 = e - 1, e - 2
    out = np.array(s, dtype=float)
    converged = np.zeros(out.shape[1], dtype=bool)
    live = np.arange(out.shape[1])
    with np.errstate(all="ignore"):
        g = e * np.float_power(s, e1)
        lam = _column_sum(g * (s - a)) / _column_sum(g * g)
        for _ in range(50):
            if not live.size:
                break
            g = e * np.float_power(s, e1)
            d = 1.0 - lam * e * e1 * np.float_power(s, e2)
            b = a - s + lam * g
            c = 1.0 - _column_sum(np.float_power(s, e))
            x, y, solved = _bordered_solve(d, g, b, c)
            s = s + x
            lam = lam + y
            step = np.abs(x[0])
            for xj in np.abs(x[1:]):
                step = np.where(xj > step, xj, step)
            done = solved & (step <= 1e-13)
            if done.any():
                out[:, live[done]] = s[:, done]
                converged[live[done]] = True
            keep = solved & ~done & np.isfinite(step)
            if not keep.all():
                live, s, a, lam = live[keep], s[:, keep], a[:, keep], lam[keep]
    return out, converged


def _bordered_solve(d, g, b, c):
    """Solve d_j x_j - g_j y = b_j for every j and sum_j g_j x_j = c, for
    P systems at once: d, g, b are (n, P) and c is (P,).

    This is the Newton system of the nearest-point KKT equations.
    Returns x (n, P), y (P,) and whether each system was solved.  For
    n = 2 it is eliminated in closed form (Cramer's rule, which never
    divides by d_j: d_j may vanish on the way), unsolved where the
    determinant is 0.  Larger systems are one batched LAPACK solve,
    each bit for bit its system's own solve; a singular one is
    unsolved.
    """
    n, P = d.shape
    if n == 2:
        # Row j pairs with the other row: D, G, B hold d, g, b swapped.
        D, G, B = d[::-1], g[::-1], b[::-1]
        t = g * g * D
        det = t[0] + t[1]
        x = (b * G * G + g * (c * D - G * B)) / det
        u = g * b * D
        return x, (c * d[0] * d[1] - u[0] - u[1]) / det, det != 0.0
    jac = np.zeros((P, n + 1, n + 1))
    jac[:, range(n), range(n)] = d.T
    jac[:, :n, n] = -g.T
    jac[:, n, :n] = g.T
    rhs = np.concatenate([b, c[None]]).T
    solved = np.ones(P, dtype=bool)
    try:
        sol = np.linalg.solve(jac, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        sol = np.zeros_like(rhs)
        for i in range(P):
            try:
                sol[i] = np.linalg.solve(jac[i], rhs[i])
            except np.linalg.LinAlgError:
                solved[i] = False
    return sol[:, :n].T, sol[:, n], solved


def _any_outward_seed(domain: Domain, pt):
    e = np.zeros(domain.n, dtype=complex)
    e[0] = 1.0
    return _shoot_to_boundary(domain, pt, e)


def _shoot_to_boundary(domain: Domain, pt, direction):
    """Root of rho along pt + t * direction, t > 0.

    One ray: the sequential shots of _shooting_foot take it, since a fan
    of one (_shoot_fan) costs more (about 235 us against 70 us on a
    general_convex egg4, 2-core x86_64).
    """

    def f(t):
        return float(defining_function(domain, pt + t * direction))

    hi = 1.0
    for _ in range(60):
        if f(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("could not bracket the boundary along the ray")
    t = brentq(f, 0.0, hi, xtol=1e-15)
    return pt + t * direction


def _shoot_fan(domain: Domain, pt, directions):
    """The boundary points pt + t_i * directions[i] of a fan of rays
    (k, n) from pt, as a stack, dropping each ray that finds none.

    Each ray brackets its root as _shoot_to_boundary does (t = 1,
    doubled at most 60 times until rho > 0), and the bracketed rays take
    one lockstep _brentq_rows, one rho call per step for the fan; so a
    ray is its own _shoot_to_boundary wherever rho rounds a point of a
    stack as it rounds the point alone.  A ray that cannot be bracketed,
    or whose run meets NaN or fails, is dropped alone.  128 rays cost
    about 1.9 ms against 9 ms one at a time (general_convex egg4, 2-core
    x86_64).
    """

    def rho(t, rows):
        return defining_function(domain, pt + t[:, None] * directions[rows])

    hi = np.ones(len(directions))
    rows = np.arange(len(directions))
    for _ in range(60):
        rows = rows[~(rho(hi[rows], rows) > 0.0)]
        if not rows.size:
            break
        hi[rows] *= 2.0
    shot = np.ones(len(directions), dtype=bool)
    shot[rows] = False
    rows = np.flatnonzero(shot)
    t = _brentq_rows(lambda x, i: rho(x, rows[i]), np.zeros(rows.size), hi[rows], xtol=1e-15)
    hit = ~np.isnan(t)
    return pt + t[hit, None] * directions[rows[hit]]


def levi_data(domain: Domain, xi):
    """Levi form of rho at a boundary point, restricted to the tangent frame.

    Returns (L, grad_norm) with L of shape (n-1, n-1).  A built-in rho
    has its exact complex Hessian, from jets.  A general_convex rho has
    the stencils of step 1e-4 and 5e-5 with Richardson extrapolation; a
    relative discrepancy above 1e-4 between the two raw estimates raises
    ConvergenceError.
    """
    L, gn, _ = _levi(domain, xi)
    return L, gn


def _levi(domain: Domain, xi):
    """levi_data as (L, grad_norm, err), err bounding the spectral norm
    of the error of L, which is at most that of the complex Hessian
    pressed onto the Hermitian-orthonormal frame: the rounding bound of
    the jets, or n times the entrywise _stencils.error_bound of the
    Richardson Hessian of a general_convex rho."""
    bp = boundary_point(domain, xi)
    gn = float(np.linalg.norm(gradient(domain, bp.position)))
    if domain.n == 1:
        return np.zeros((0, 0), dtype=complex), gn, 0.0
    rho = functools.partial(defining_function, domain)
    if domain.kind == "general_convex":
        h = 1e-4
        sample = _stencils.complex_hessian(rho, bp.position, h)
        H, gap = sample.matrix, sample.richardson_gap
        if gap > 1e-4:
            raise ConvergenceError(f"Levi form stencil unstable: step-halving gap {gap:.3e}")
        # The stencil reads rho within sqrt(2) h of xi, where |rho| <= |rho(xi)| + 2 h |grad rho|.
        err = domain.n * _stencils.error_bound(H, gap, abs(float(rho(bp.position))) + 2.0 * h * gn, h)
    else:
        Hs, bounds = _jets.hessians(rho, bp.position[None])
        H, err = Hs[0], float(bounds[0])
    frame = bp.tangent_frame
    L = frame @ H @ frame.conj().T
    return (L + L.conj().T) / 2.0, gn, err


def line_type(domain: Domain, xi) -> int:
    """Order of boundary flatness along complex tangent lines at xi.

    Probes |rho| on circles of radii eps around xi inside sampled
    complex tangent lines, fits the growth exponent on a log-log ladder,
    and snaps it to an even integer (ties upward).  Returns the largest
    snapped order over the sampled directions, at least 2 and capped at
    _MAX_LINE_TYPE (with a warning when the cap binds).
    """
    if domain.n < 2:
        raise UnsupportedDomainError("line type needs a domain in C^n with n >= 2")
    if domain.kind == "annulus":
        raise UnsupportedDomainError("line type undefined for the annulus")
    bp = boundary_point(domain, xi)

    n_dirs = 128
    n_theta = 64
    eps_ladder = np.logspace(-1, -4, 7)

    rng = np.random.Generator(np.random.PCG64(20240517))
    raw = rng.standard_normal((n_dirs, domain.n - 1)) + 1j * rng.standard_normal((n_dirs, domain.n - 1))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    dirs = raw @ bp.tangent_frame  # (n_dirs, n) unit tangent vectors

    thetas = np.exp(2j * np.pi * np.arange(n_theta) / n_theta)
    # points[d, e, t] = xi + eps_e * theta_t * dirs_d
    disp = dirs[:, None, None, :] * (eps_ladder[None, :, None] * thetas[None, None, :])[..., None]
    vals = np.abs(defining_function(domain, bp.position[None, None, None, :] + disp))
    M = vals.max(axis=2)  # (n_dirs, n_eps)

    best = 2
    saturated = False
    log_eps = np.log(eps_ladder)
    for d in range(n_dirs):
        mv = M[d]
        mask = mv > 1e-13
        if mask.sum() < 3:
            saturated = True
            continue
        x = log_eps[mask]
        y = np.log(mv[mask])
        slope = float(np.polyfit(x, y, 1)[0])
        pair_slopes = np.diff(y) / np.diff(x)
        if pair_slopes.size >= 2 and float(pair_slopes.max() - pair_slopes.min()) > 0.25:
            warnings.warn(f"line type probe unstable along a direction: slope {slope:.3f}, "
                          f"pairwise spread {pair_slopes.max() - pair_slopes.min():.3f}")
        order = int(2 * math.floor(slope / 2.0 + 0.5))
        order = max(order, 2)
        best = max(best, order)
    if best > _MAX_LINE_TYPE or saturated:
        warnings.warn(f"line type saturates the probe: at least {_MAX_LINE_TYPE}")
        return _MAX_LINE_TYPE
    return best
