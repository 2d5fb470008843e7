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
                          boundary_distance, boundary_point, require_interior)
from .errors import ConvergenceError, DomainError, UnsupportedDomainError

GREEN_POLE = float("-inf")

_METHODS = ("closed_form", "limit_ladder")


@dataclass(frozen=True)
class KernelValue:
    """A kernel evaluation with its provenance and uncertainty."""

    value: float
    method: str
    uncertainty: float

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConvergenceError(f"unknown kernel method {self.method!r}")
        if self.method == "closed_form" and self.uncertainty != 0.0:
            raise ConvergenceError("closed-form values carry zero uncertainty")


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

    The xi work (the axis phase of an egg) is done here, once.  Every
    array operation rounds as the Python scalar formula for one point
    does, so a stack and its points one at a time agree bit for bit:
    |w| is hypot (np.abs rounds differently), a float power is
    float_power (not the array **), the norm is a row-wise matmul
    (domain_core._row_norm), and the product with the conjugate egg
    phase is written out in reals (numpy's complex multiply may fuse
    its products).  The ball and egg forms also take a _jets.JetPoint,
    which gives their jets: one expression serves values and exact
    Hessians.
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
    if k == "ball":
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
    if k == "ellipsoid":
        phase = _egg_axis_phase(dom, xi)
        if phase is None:
            return None
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
    return None


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
    """Boundary kernel Omega_xi(z): the closed form where xi has one,
    else the normal-derivative ladder of the Green function."""
    xi = boundary_point(dom, xi)
    z = require_interior(dom, z, "z")
    form = _closed_form(dom, xi)
    if form is not None:
        return KernelValue(float(form(z)), "closed_form", 0.0)
    gnd = green_normal_derivative(dom, xi, z)
    return KernelValue(-gnd.value, "limit_ladder", gnd.uncertainty)


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
    poles = (_row_norm(z - w) < 1e-15).tolist()
    return [GREEN_POLE if pole else None if k is None else _log_tanh_half(k)
            for pole, k in zip(poles, geodesics_metrics._exact_distances(dom, z, w))]


def _horofunction_many(form, p, z):
    """log|Omega(p)| - log|Omega(z)| per row of stacks p and z (k, n),
    with form, a _closed_form of Omega_xi, evaluated once on all 2k points.
    """
    om = form(np.concatenate([p, z])).tolist()
    k = len(z)
    return np.array([math.log(-a) - math.log(-b) for a, b in zip(om[:k], om[k:])])


def _kernel_rows(dom: Domain, xi, z) -> np.ndarray:
    """Omega_xi at each point of a stack z (k, n), each bit for bit the
    point's poisson_kernel value.

    Where xi has a closed form the stack is one ClosedFormKernel.many
    call, which checks every point inside; elsewhere each row is a
    one-point call.
    """
    try:
        omega = ClosedFormKernel(dom, xi, 1.0).many
    except UnsupportedDomainError:
        return np.array([poisson_kernel(dom, xi, row).value for row in z])
    return omega(z)


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

    The kernel form is one _horofunction_many call.  The ladder takes
    the rungs once and the distances of all rows in one _distance_rows
    call, row by row the pairs (z, w_j), then (w_j, p), so a stack of
    one makes the pairs of one point.  An error is one row's: every p,
    then every z, is checked inside first, and a failing distance of
    any row raises before the extrapolation of the first.
    """
    xi = boundary_point(dom, xi)
    p, z = np.broadcast_arrays(_interior_stack(dom, p, "p"), _interior_stack(dom, z, "z"))
    if method not in ("auto", "kernel", "ladder"):
        raise DomainError(f"unknown horofunction method {method!r}")

    form = None if method == "ladder" else _closed_form(dom, xi)
    if form is not None:
        return [KernelValue(v, "closed_form", 0.0) for v in _horofunction_many(form, p, z).tolist()]
    if method == "kernel":
        raise _no_closed_form(dom)

    js = range(4, 12) if dom.kind == "annulus" else range(1, 9)
    ws = np.array(normal_ladder(dom, xi, js))
    r = len(ws)
    rungs = np.broadcast_to(ws, (len(z), r, dom.n))
    zs = np.concatenate([np.broadcast_to(z[:, None], rungs.shape), rungs], axis=1)
    ps = np.concatenate([rungs, np.broadcast_to(p[:, None], rungs.shape)], axis=1)
    dist, width = geodesics_metrics._distance_rows(dom, zs.reshape(-1, dom.n), ps.reshape(-1, dom.n))
    out = []
    for i in range(0, len(dist), 2 * r):
        d, w = dist[i:i + 2 * r], width[i:i + 2 * r]
        vals = [a - b for a, b in zip(d[:r], d[r:])]
        widths = max([0.0] + [a + b for a, b in zip(w[:r], w[r:])])
        est, unc = extrapolate(vals, "horofunction")
        out.append(KernelValue(float(est), "limit_ladder", float(unc + 0.5 * widths)))
    return out


def horofunction(dom: Domain, xi, p, z) -> KernelValue:
    """Horofunction h_{xi, p}(z).

    Where xi has a closed-form kernel it is log|Omega_xi(p)| -
    log|Omega_xi(z)|; elsewhere the extrapolated limit of
    k(z, w_j) - k(w_j, p) along w_j = xi - 10^-j n_xi, whose exact rung
    distances are one stacked call and whose other pairs are each
    sandwiched alone.  One point is a stack of one (_horofunction_rows).
    """
    return _horofunction_rows(dom, xi, [p], [z])[0]


def green_normal_derivative(dom: Domain, xi, z) -> KernelValue:
    """Inward normal derivative of the Green function G_z at xi.

    Extrapolates G_z(w_j) / (-delta(w_j)) along the normal ladder; the
    limit is positive and equals |Omega_xi(z)|.
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
