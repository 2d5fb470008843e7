"""Green function, boundary kernel, horofunctions, and horospheres.

The boundary kernel Omega_xi is negative on the domain, normalized so
that on the disc Omega_1(0) = -1 and on a geodesic disc phi ending at
xi it pulls back to Omega(phi(zeta)) = Omega_1(zeta) / phi'_N(1).  The
Green function with pole w is G_w = log tanh(k(., w)/2); its value at
the pole is the sentinel GREEN_POLE (minus infinity, never arithmetic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _jets, geodesics_metrics
from ._extrap import extrapolate, normal_ladder
from .domain_core import (Domain, BoundaryPoint, _even_power, _inside_rows, _row_norm, _sq_norm, as_point,
                          boundary_distance, boundary_point, gradient, require_interior)
from .errors import ConvergenceError, DomainError, UnsupportedDomainError

GREEN_POLE = float("-inf")

_METHODS = ("closed_form", "green_derivative", "limit_ladder")


@dataclass(frozen=True)
class KernelValue:
    """A kernel evaluation with its provenance and uncertainty, which is 0
    on the exact routes, closed_form and green_derivative."""

    value: float
    method: str
    uncertainty: float

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConvergenceError(f"unknown kernel method {self.method!r}")
        if self.method != "limit_ladder" and self.uncertainty != 0.0:
            raise ConvergenceError("exact kernel values carry zero uncertainty")


def _log_tanh_half(k: float) -> float:
    """log tanh(k/2) for k > 0, to a few ulp for tiny and huge k alike.

    Up to k = 1 tanh itself is accurate; above it the log1p form keeps
    the relative accuracy of the tiny value -2 exp(-k) (where tanh
    rounds to 1), which below it would inherit the absolute rounding of
    exp(-k) near 1.
    """
    if k <= 1.0:
        return math.log(math.tanh(0.5 * k))
    return math.log1p(-math.exp(-k)) - math.log1p(math.exp(-k))


def _egg_axis_phase(dom: Domain, xi: BoundaryPoint):
    """Rotation phase when xi sits on the z0 axis of an egg, else None."""
    pos = xi.position
    if float(np.max(np.abs(pos[1:]), initial=0.0)) > 1e-12:
        return None
    if abs(abs(pos[0]) - 1.0) > 1e-12:
        return None
    return pos[0] / abs(pos[0])


def _abs(w):
    """|w| elementwise, rounded as Python's abs(complex) rounds it."""
    return np.hypot(w.real, w.imag)


def _abs_power(x, y, e):
    """|x + i y|^e for even e: float_power of hypot on arrays, and on
    jets products of x x + y y (domain_core._even_power)."""
    if isinstance(x, _jets.Jet):
        return _even_power(_jets.Coord(x, y), e)
    return np.float_power(np.hypot(x, y), e)


def _closed_form(dom: Domain, xi: BoundaryPoint):
    """Omega_xi as a function of a stack of points (..., n), or None.

    The closed forms: the disc, the half-plane, the ball, an ellipsoid at
    a xi on its z0 axis, and an ellipsoid whose m_j all equal 2 (the
    unit ball) at any xi, by the ball's form.  The xi work (the axis
    phase of an egg) is done here, once.  Every array operation rounds
    as the Python scalar formula for one point does, so a stack and its
    points one at a time agree bit for bit: |w| is hypot (np.abs rounds
    differently), a float power is float_power (not the array **), the
    norm is a row-wise matmul (domain_core._row_norm), and the product
    with the conjugate egg phase is written out in reals (numpy's
    complex multiply may fuse its products).  The ball and egg forms
    also take a _jets.JetPoint, which gives their jets: one expression
    serves values and exact Hessians.
    """
    k = dom.kind
    if k == "disc":
        x = complex(xi.position[0])

        def form(z):
            z0 = z[..., 0]
            r = _abs(z0)
            if np.any(r >= 1.0):
                raise DomainError("point must lie in the open unit disc")
            return -(1.0 - np.float_power(r, 2)) / np.float_power(_abs(x - z0), 2)
        return form
    if k == "half_plane":
        x = xi.position[0]
        # Python's complex division, which numpy's does not round alike.
        reciprocal = np.vectorize(lambda w: 2.0 * (1.0 / complex(w)).real, otypes=[float])
        return lambda z: reciprocal(z[..., 0] - x)
    if k == "ellipsoid":
        phase = _egg_axis_phase(dom, xi)
        if phase is not None:
            cr, ci = phase.real, -phase.imag

            def form(z):
                w = _jets.coords(z)
                zr, zi = w[0].real, w[0].imag
                # z0 = z[0] conj(phase), in reals.
                z0r, z0i = zr * cr - zi * ci, zr * ci + zi * cr
                acc = 1.0 - _abs_power(z0r, z0i, 2)
                for j, mj in enumerate(dom.m):
                    acc = acc - _abs_power(w[j + 1].real, w[j + 1].imag, mj)
                return -acc / _abs_power(1.0 - z0r, z0i, 2)
            return form
        if set(dom.m) != {2}:
            return None
    if k in ("ball", "ellipsoid"):
        conj_xi = np.conj(xi.position)

        def form(z):
            if isinstance(z, _jets.JetPoint):
                # sum_j z_j conj(xi_j) in reals.
                s_re = sum(w.real * c.real - w.imag * c.imag for w, c in zip(z.coords, conj_xi))
                s_im = sum(w.real * c.imag + w.imag * c.real for w, c in zip(z.coords, conj_xi))
                num = 1.0 - _sq_norm(z)
            else:
                s = np.sum(z * conj_xi, axis=-1)
                s_re, s_im = s.real, s.imag
                num = 1.0 - np.float_power(_row_norm(z), 2)
            return -num / _abs_power(1.0 - s_re, s_im, 2)
        return form
    return None


def _axis_kernel(dom: Domain, xi: BoundaryPoint):
    """Omega_xi(z) of an ellipsoid at z = (a, 0, ..., 0) on its z0 axis,
    for any xi, as a function of a stack of such a (k,).

    Omega_xi(z) = -dG_z/dn at xi, the paper's identity.  On the axis
    G_z = log g(F_a(.)), with g the Minkowski gauge and F_a the
    automorphism moving z to 0 (geodesics_metrics._egg_automorphism),
    because k(z, w) = log((1 + g)/(1 - g)) at F_a(w) is the exact axis
    distance (geodesics_metrics._egg_distance_exact).  By Euler,
    grad g = grad rho / d rho_q[q] at q = F_a(xi), so
    Omega_xi(z) = -d rho_q[dF_a(xi) n_xi] / d rho_q[q], which reduces to

        -(1 - |a|^2) |grad rho(xi)| / (2 |xi_0 - a|^2 + (1 - |a|^2) sum_j m_j |xi_j|^m_j).

    Only real elementwise products, sums and quotients act on a, so a
    row rounds as its point alone does.
    """
    pos = xi.position
    grad = float(np.linalg.norm(gradient(dom, pos)))
    weight = sum(mj * float(_even_power(pos[j + 1], mj)) for j, mj in enumerate(dom.m))
    x0, y0 = float(pos[0].real), float(pos[0].imag)

    def form(a):
        x, y = a.real, a.imag
        fac = 1.0 - (x * x + y * y)
        dx, dy = x0 - x, y0 - y
        return -(fac * grad) / (2.0 * (dx * dx + dy * dy) + fac * weight)
    return form


def _exact_kernels(dom: Domain, xi: BoundaryPoint, z):
    """Omega_xi at each row of a stack z (k, n) of interior points by its
    exact route: (method, values), with a float or None per row, each bit
    for bit the row's alone, and method the route of the floats.

    The routes, in order: the closed forms (_closed_form, method
    closed_form), then on an ellipsoid the Green derivative at each row
    on the z0 axis (_axis_kernel, method green_derivative, at any xi).
    A row that no route takes is None, and so is every row of a domain
    with no exact kernel at xi; a certified kernel there needs a bracket.
    """
    form = _closed_form(dom, xi)
    if form is not None:
        return "closed_form", form(z).tolist()
    values = [None] * len(z)
    if dom.kind != "ellipsoid":
        return None, values
    rows = np.flatnonzero(geodesics_metrics._is_axis(z))
    for i, value in zip(rows.tolist(), _axis_kernel(dom, xi)(z[rows, 0]).tolist()):
        values[i] = value
    return "green_derivative", values


def _no_certified_kernel(dom: Domain):
    """The refusal of a kernel that no exact route takes: on the annulus,
    which is not convex, the one of green_function; elsewhere a certified
    value needs a bracket."""
    if dom.kind == "annulus":
        return UnsupportedDomainError("the Green-from-distance formula needs a convex domain")
    return ConvergenceError("no certified kernel at this pair")


def _no_closed_form(dom: Domain) -> UnsupportedDomainError:
    return UnsupportedDomainError(f"no closed-form kernel for {dom.label} at this point")


class ClosedFormKernel:
    """The function z -> scale * Omega_xi(z) by its closed form.

    xi is parsed and its closed form set up once.  Called on one point
    it returns a float; many() takes a stack of points (..., n) and
    returns their values in one array evaluation, bit for bit the same
    as point by point.  On a ball or egg many() also takes a
    _jets.JetPoint and returns the jet, whose Hessians are exact; on the
    disc and half-plane it raises UnsupportedDomainError on one.  Both
    raise DomainError unless every point lies inside the domain, as
    require_interior decides for the point alone.
    """

    def __init__(self, dom: Domain, xi, scale: float):
        self.dom = dom
        self.scale = scale
        self._form = _closed_form(dom, boundary_point(dom, xi))
        if self._form is None:
            raise _no_closed_form(dom)

    def __call__(self, z) -> float:
        return float(self.many(as_point(self.dom, z)))

    def many(self, pts):
        if isinstance(pts, _jets.JetPoint):
            if self.dom.kind not in ("ball", "ellipsoid"):
                raise UnsupportedDomainError(f"no jet of the closed-form kernel on {self.dom.label}")
            rows = pts.points
        else:
            pts = rows = np.asarray(pts, dtype=complex)
        if not _inside_rows(self.dom, rows.reshape(-1, rows.shape[-1])).all():
            raise DomainError("z must lie inside the domain")
        return self.scale * self._form(pts)


def poisson_kernel(dom: Domain, xi, z) -> KernelValue:
    """Boundary kernel Omega_xi(z) by its exact route (_exact_kernels).

    Where no exact route takes the pair, ConvergenceError (on the annulus
    UnsupportedDomainError), before any Green value, distance or
    sandwich is computed.
    """
    xi = boundary_point(dom, xi)
    z = require_interior(dom, z, "z")
    method, [value] = _exact_kernels(dom, xi, z[None])
    if value is None:
        raise _no_certified_kernel(dom)
    return KernelValue(value, method, 0.0)


def green_function(dom: Domain, w, z) -> KernelValue:
    """Green function G_w(z) = log tanh(k(z, w)/2).

    Needs a convex domain; the annulus is rejected.  With only two-sided
    distance bounds the value is the midpoint and the uncertainty half
    the induced width.
    """
    if dom.kind == "annulus":
        raise UnsupportedDomainError("the Green-from-distance formula needs a convex domain")
    w = require_interior(dom, w, "w")
    z = require_interior(dom, z, "z")
    [value] = _green_rows(dom, w[None], z[None])
    if value is not None:
        return KernelValue(value, "closed_form", 0.0)
    return _green_sandwich(dom, w, z)


def _green_sandwich(dom: Domain, w, z) -> KernelValue:
    """green_function's value at a pair of interior points that no exact
    route takes, from the distance sandwich (geodesics_metrics._sandwich)."""
    bound = geodesics_metrics._sandwich(dom, z, w)
    glo = _log_tanh_half(bound.lower) if bound.lower > 0 else GREEN_POLE
    ghi = _log_tanh_half(bound.upper)
    if glo == GREEN_POLE:
        raise ConvergenceError("distance lower bound degenerate at the pole")
    return KernelValue(0.5 * (glo + ghi), "limit_ladder", 0.5 * (ghi - glo))


def _green_rows(dom: Domain, w, z) -> list:
    """green_function's exact values at the pairs of stacks w and z (k, n)
    of interior points, each bit for bit its pair's: GREEN_POLE for a
    pair closer than 1e-15, log tanh(k/2) of an exact distance k, and
    None where the distance has no exact route.  UnsupportedDomainError
    on the annulus, which is not convex.
    """
    if dom.kind == "annulus":
        raise UnsupportedDomainError("the Green-from-distance formula needs a convex domain")
    return geodesics_metrics._exact_distances(dom, z, w, _log_tanh_half, GREEN_POLE)


def _exact_horofunctions(dom: Domain, xi: BoundaryPoint, p, z):
    """log|Omega_xi(p)| - log|Omega_xi(z)| per row of stacks p and z (k, n)
    where _exact_kernels gives both kernels, else None, with the kernels
    of all 2k points from one _exact_kernels call: (method, values).
    """
    method, om = _exact_kernels(dom, xi, np.concatenate([p, z]))
    k = len(z)
    return method, [None if a is None or b is None else math.log(-a) - math.log(-b)
                    for a, b in zip(om[:k], om[k:])]


def _kernel_rows(dom: Domain, xi, z) -> np.ndarray:
    """Omega_xi at each point of a stack z (k, n), each bit for bit the
    point's poisson_kernel value, from one _exact_kernels call.

    DomainError unless every point lies inside (_interior_stack), and
    poisson_kernel's refusal if a row has no exact kernel.
    """
    xi = boundary_point(dom, xi)
    _, values = _exact_kernels(dom, xi, _interior_stack(dom, z, "z"))
    if None in values:
        raise _no_certified_kernel(dom)
    return np.array(values)


def _interior_stack(dom: Domain, pts, name) -> np.ndarray:
    """pts, a stack (k, n) (or (k,) in one variable), as a complex array;
    DomainError naming it for a row of the wrong shape, or unless every
    row lies inside (_inside_rows), as require_interior raises it for one
    point."""
    stack = np.asarray(pts, dtype=complex)
    if stack.ndim == 1:
        stack = stack[:, None]
    if stack.ndim != 2 or stack.shape[1] != dom.n:
        raise DomainError(f"expected a point of C^{dom.n}, got shape {stack.shape[1:]}")
    if not _inside_rows(dom, stack).all():
        raise DomainError(f"{name} must lie inside the domain")
    return stack


def _horofunction_rows(dom: Domain, xi, p, z, method="auto") -> list:
    """horofunction at each row of stacks p and z (k, n), p possibly one
    row for all: a KernelValue per row, bit for bit the row's own.

    Method "auto" gives each row whose p and z both have an exact kernel
    the kernel form (one _exact_horofunctions call), and the other rows
    the ladder; "kernel" is the closed form's kernel form on every row,
    and "ladder" the ladder on every row.  The ladder takes its rows as
    one sub-stack: the rungs once and the distances of all its rows in
    one _distance_rows call, row by row the pairs (z, w_j), then
    (w_j, p), so a stack of one makes the pairs of one point.  An error
    is one row's: every p, then every z, is checked inside first, and a
    failing distance of any row raises before the extrapolation of the
    first.
    """
    xi = boundary_point(dom, xi)
    p, z = np.broadcast_arrays(_interior_stack(dom, p, "p"), _interior_stack(dom, z, "z"))
    if method not in ("auto", "kernel", "ladder"):
        raise DomainError(f"unknown horofunction method {method!r}")

    out = [None] * len(z)
    if method != "ladder":
        route, values = _exact_horofunctions(dom, xi, p, z)
        if method == "kernel" and route != "closed_form":
            raise _no_closed_form(dom)
        out = [None if v is None else KernelValue(v, route, 0.0) for v in values]
    rows = [i for i, kv in enumerate(out) if kv is None]
    if not rows:
        return out

    p, z = p[rows], z[rows]
    js = range(4, 12) if dom.kind == "annulus" else range(1, 9)
    ws = np.array(normal_ladder(dom, xi, js))
    r = len(ws)
    rungs = np.broadcast_to(ws, (len(z), r, dom.n))
    zs = np.concatenate([np.broadcast_to(z[:, None], rungs.shape), rungs], axis=1)
    ps = np.concatenate([rungs, np.broadcast_to(p[:, None], rungs.shape)], axis=1)
    dist, width = geodesics_metrics._distance_rows(dom, zs.reshape(-1, dom.n), ps.reshape(-1, dom.n))
    for row, i in zip(rows, range(0, len(dist), 2 * r)):
        d, w = dist[i:i + 2 * r], width[i:i + 2 * r]
        vals = [a - b for a, b in zip(d[:r], d[r:])]
        widths = max([0.0] + [a + b for a, b in zip(w[:r], w[r:])])
        est, unc = extrapolate(vals, "horofunction")
        out[row] = KernelValue(float(est), "limit_ladder", float(unc + 0.5 * widths))
    return out


def horofunction(dom: Domain, xi, p, z) -> KernelValue:
    """Horofunction h_{xi, p}(z).

    Where p and z both have an exact kernel (_exact_kernels) it is
    log|Omega_xi(p)| - log|Omega_xi(z)|; elsewhere the extrapolated limit
    of k(z, w_j) - k(w_j, p) along w_j = xi - 10^-j n_xi, whose exact
    rung distances are one stacked call and whose other pairs are each
    sandwiched alone.  One point is a stack of one (_horofunction_rows).
    """
    return _horofunction_rows(dom, xi, [p], [z])[0]


def green_normal_derivative(dom: Domain, xi, z) -> KernelValue:
    """Inward normal derivative of the Green function G_z at xi.

    Extrapolates G_z(w_j) / (-delta(w_j)) along the normal ladder; the
    limit is positive and equals |Omega_xi(z)|.  A numerical reference
    for the identity Omega = -dG/dn: no kernel route reads it.
    """
    xi = boundary_point(dom, xi)
    z = require_interior(dom, z, "z")
    vals = []
    unc_extra = 0.0
    for w in normal_ladder(dom, xi, range(2, 9)):
        delta = boundary_distance(dom, w)
        g = green_function(dom, w, z)
        vals.append(g.value / (-delta))
        unc_extra = max(unc_extra, g.uncertainty / delta)
    est, unc = extrapolate(vals, "Green normal-derivative")
    if not est > 0.0:
        raise ConvergenceError(f"Green normal derivative not positive: {est!r}")
    return KernelValue(float(est), "limit_ladder", float(unc + unc_extra))


def horosphere_contains(dom: Domain, xi, p, R, z):
    """Whether z lies in the horosphere {h_{xi, p} < log R}.

    Returns True/False, or None when the horofunction's uncertainty
    straddles the margin.
    """
    if not R > 0:
        raise DomainError("horosphere radius must be positive")
    h = horofunction(dom, xi, p, z)
    margin = math.log(R) - h.value
    if h.uncertainty > 0.0 and abs(margin) <= h.uncertainty:
        return None
    return margin > 0.0


def k_region_contains(dom: Domain, xi, p, M, z):
    """Whether z lies in the approach region {h + k(., p) < 2 log M}."""
    if not M > 1.0:
        raise DomainError("approach-region aperture must exceed 1")
    h = horofunction(dom, xi, p, z)
    b = geodesics_metrics.kobayashi_distance(dom, as_point(dom, z), as_point(dom, p))
    margin = 2.0 * math.log(M) - (h.value + b.value)
    unc = h.uncertainty + 0.5 * b.width
    if unc > 0.0 and abs(margin) <= unc:
        return None
    return margin > 0.0


def boundary_distance_asymptotic(dom: Domain, xi, p, approach) -> KernelValue:
    """Limit of k(z_j, p) + log delta(z_j) along an approach to xi.

    The limit equals -log(|Omega_xi(p)| / 2) whenever the approach is
    eventually inside an approach region at xi.
    """
    xi = boundary_point(dom, xi)
    p = require_interior(dom, p, "p")
    vals = []
    widths = 0.0
    for zj in approach:
        zj = require_interior(dom, zj, "approach point")
        b = geodesics_metrics.kobayashi_distance(dom, zj, p)
        vals.append(b.value + math.log(boundary_distance(dom, zj)))
        widths = max(widths, 0.5 * b.width)
    if len(vals) < 3:
        raise DomainError("approach sequence needs at least 3 points")
    est, unc = extrapolate(vals, "boundary-distance")
    return KernelValue(float(est), "limit_ladder", float(unc + widths))
