"""Second-order jets on stacks: exact Hessians of rational expressions.

A Jet carries, for each point of a stack of k points, a value with its
real gradient and real Hessian over d real coordinates: arrays (k,),
(k, d) and (k, d, d).  Sums, differences, products and quotients
propagate all three by the rules of forward-mode automatic
differentiation to second order (Griewank and Walther, Evaluating
Derivatives, SIAM 2008), so a rational expression evaluated on jets
gives its Hessian with rounding error only: no step, no truncation.
The other operand of an operation may be a Jet or a real scalar.

A JetPoint is a stack of points of C^n as jets of their d = 2n real
coordinates Re z_0, ..., Re z_{n-1}, Im z_0, ..., Im z_{n-1}.  An
expression that reads its points through coords() takes a JetPoint
and a stack of complex points alike.
"""

from __future__ import annotations

import numpy as np

_EPS = float(np.finfo(float).eps)

# Each entry of a complex Hessian from hessians() is taken to be within
# ROUNDING * eps * S of the exact one, S being the largest real second
# derivative at the point.  This is a calibration against mpmath, not a
# proof: against 50-digit re-evaluations of the ball2, egg4 and egg6
# kernels (the monge_ampere suite's samples, its curve points and random
# points of gauge 0.01 to 0.99) the largest ratio |error| / (eps S) is
# 1.29, and this is the next integer above it.
ROUNDING = 2.0


class Jet:
    """Value, real gradient and real Hessian of a function on a stack."""

    __slots__ = ("v", "g", "h")
    # ndarray and numpy scalars defer to the reflected operations below.
    __array_ufunc__ = None

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.v + other.v, self.g + other.g, self.h + other.h)
        return Jet(self.v + other, self.g, self.h)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.v, -self.g, -self.h)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.v - other.v, self.g - other.g, self.h - other.h)
        return Jet(self.v - other, self.g, self.h)

    def __rsub__(self, other):
        return Jet(other - self.v, -self.g, -self.h)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.v * other, self.g * other, self.h * other)
        a, b = self, other
        cross = _outer(a.g, b.g)
        return Jet(a.v * b.v, a.g * b.v[:, None] + b.g * a.v[:, None],
                   a.h * b.v[:, None, None] + b.h * a.v[:, None, None] + cross + cross.swapaxes(1, 2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.v / other, self.g / other, self.h / other)
        # q = a / b from a = q b: q' = (a' - q b') / b and
        # q'' = (a'' - q b'' - q' b'^T - b' q'^T) / b.
        a, b = self, other
        q = a.v / b.v
        g = (a.g - b.g * q[:, None]) / b.v[:, None]
        cross = _outer(g, b.g)
        return Jet(q, g, (a.h - b.h * q[:, None, None] - cross - cross.swapaxes(1, 2)) / b.v[:, None, None])


def _outer(a, b):
    """The outer products a_i b_j^T of two stacks of gradients (k, d)."""
    return a[:, :, None] * b[:, None, :]


class Coord:
    """One complex coordinate of a JetPoint: the jets of its real and imaginary parts."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        self.real, self.imag = real, imag


class JetPoint:
    """A stack of points (k, n) of C^n, seeded as jets of their real coordinates."""

    __slots__ = ("points", "coords")

    def __init__(self, points):
        k, n = points.shape
        eye = np.eye(2 * n)
        flat = np.zeros((k, 2 * n, 2 * n))

        def seed(values, i):
            return Jet(values, np.broadcast_to(eye[i], (k, 2 * n)), flat)

        self.points = points
        self.coords = [Coord(seed(points[:, j].real, j), seed(points[:, j].imag, n + j))
                       for j in range(n)]


def coords(z):
    """The complex coordinates of z, a stack of points (..., n) or a JetPoint.

    The columns of a stack; those of one point (n,) are numpy scalars,
    on which the arithmetic rounds as on arrays and costs less.
    """
    if isinstance(z, JetPoint):
        return z.coords
    return [z[..., j][()] for j in range(z.shape[-1])]


def hessians(f, points):
    """Exact complex Hessians of f at a stack of points (k, n), with error bounds.

    f maps a stack of points to their real values and also takes a
    JetPoint.  Returns (matrices, bounds): the Hessians (k, n, n) of
    entries d^2 f / dz_j dzbar_k, in the convention where |z|^2 has the
    identity, and per point a bound on the spectral norm of the error of
    its matrix: n times the entrywise bound ROUNDING * eps * S.  By
    Weyl's inequality it bounds the error of every eigenvalue too.
    """
    n = points.shape[-1]
    R = f(JetPoint(points)).h
    xx, yy, xy, yx = R[:, :n, :n], R[:, n:, n:], R[:, :n, n:], R[:, n:, :n]
    # d/dz = (d/dx - i d/dy) / 2 and d/dzbar = (d/dx + i d/dy) / 2.
    matrices = ((xx + yy) + 1j * (xy - yx)) / 4.0
    return matrices, n * ROUNDING * _EPS * np.max(np.abs(R), axis=(1, 2))

