"""One-variable hyperbolic geometry: disc, half-plane, strip, annulus.

Distances use the doubled normalization k(0, t) = log((1+t)/(1-t)) on
the unit disc, so k(0, 0.5) = log 3.  The reference half-plane is
H = {Re w < 0}; its boundary kernel is normalized by value -2 at w = -1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, UnsupportedDomainError


def _require_disc(z, name="point"):
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError(f"{name} must lie in the open unit disc, got |z| = {abs(z):.6g}")
    return z


def _k_from_rho(rho, one_minus_rho_sq):
    """Hyperbolic distance from the pseudo-distance rho, stably.

    For rho near 1 the value log((1+rho)^2 / (1-rho^2)) avoids the
    cancellation in 1 - rho.
    """
    if rho < 0.9:
        return 2.0 * math.atanh(rho)
    return math.log((1.0 + rho) ** 2 / one_minus_rho_sq)


def _k_from_rho_many(rho, one_minus_rho_sq):
    """_k_from_rho per element of two arrays of one shape (a float if 0-d).

    Python's math runs on each element: numpy's atanh and log round
    differently.
    """
    if rho.ndim == 0:
        return _k_from_rho(float(rho), float(one_minus_rho_sq))
    vals = [_k_from_rho(r, s) for r, s in zip(rho.ravel().tolist(), one_minus_rho_sq.ravel().tolist())]
    return np.array(vals).reshape(rho.shape)


def _hypot_sq(re, im):
    """|re + i im|^2 as Python's abs(complex) ** 2 rounds it (hypot, then pow)."""
    return np.float_power(np.hypot(re, im), 2)


def disc_distance(z1, z2):
    """Hyperbolic distance between two points of the unit disc.

    z1 and z2 may also be arrays (broadcast together), for the distances
    of many pairs in one call, each bit for bit what the pair gives
    alone: |.| is hypot and a square float_power, as Python's scalar
    arithmetic rounds them, and the complex product is written out in
    reals.  Returns a float for scalars, else an array.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    x1, y1, x2, y2 = z1.real, z1.imag, z2.real, z2.imag
    mag1, mag2 = np.hypot(x1, y1), np.hypot(x2, y2)
    for name, mag in (("z1", mag1), ("z2", mag2)):
        outside = mag >= 1.0
        if outside.any():
            raise DomainError(f"{name} must lie in the open unit disc, "
                              f"got |z| = {float(mag[outside].flat[0]):.6g}")
    # |1 - conj(z2) z1|^2, the product written out in reals.
    den = _hypot_sq(1.0 - (x2 * x1 + y2 * y1), x2 * y1 - y2 * x1)
    rho = np.hypot(x1 - x2, y1 - y2) / np.sqrt(den)
    s = (1.0 - np.float_power(mag1, 2)) * (1.0 - np.float_power(mag2, 2)) / den
    return _k_from_rho_many(rho, s)


def _upper_distance(u1, u2) -> float:
    """Hyperbolic distance on the upper half-plane, doubled normalization."""
    if u1.imag <= 0 or u2.imag <= 0:
        raise DomainError("points must lie in the upper half-plane")
    den = abs(u1 - np.conj(u2)) ** 2
    rho = abs(u1 - u2) / math.sqrt(den)
    s = 4.0 * u1.imag * u2.imag / den
    return _k_from_rho(rho, s)


_TINY = float(np.finfo(float).tiny)
_LN2 = math.log(2.0)


def halfplane_distance(w1, w2):
    """Hyperbolic distance on {Re w < 0}.

    w1 and w2 may also be arrays (broadcast together), as for
    disc_distance: each pair's distance is bit for bit the pair's alone.
    The upper half-plane point u = -i w = (Im w, -Re w) is written in
    reals, and each pair is first scaled by the power of two of its
    largest coordinate, which is exact and keeps |u1 - conj(u2)|^2 clear
    of overflow and underflow at any common magnitude from 1e-300 to
    1e300.  Where 1 - rho^2 = 4 y1 y2 / den still underflows (to 0 or a
    subnormal), at magnitudes further apart, k = log((1 + rho)^2) - log of
    it, the log taken factor by factor on the unscaled y.  Returns a
    float for scalars, else an array.
    """
    w1 = np.asarray(w1, dtype=complex)
    w2 = np.asarray(w2, dtype=complex)
    if (w1.real >= 0).any() or (w2.real >= 0).any():
        raise DomainError("points must satisfy Re w < 0")
    x1, y1, x2, y2 = np.broadcast_arrays(w1.imag, -w1.real, w2.imag, -w2.real)
    top = np.maximum(np.maximum(np.abs(x1), y1), np.maximum(np.abs(x2), y2))
    shift = -np.frexp(top)[1]
    sx1, sy1, sx2, sy2 = (np.ldexp(c, shift) for c in (x1, y1, x2, y2))
    den = _hypot_sq(sx1 - sx2, sy1 + sy2)
    rho = np.hypot(sx1 - sx2, sy1 - sy2) / np.sqrt(den)
    s = 4.0 * sy1 * sy2 / den
    tiny = s < _TINY
    if not tiny.any():
        return _k_from_rho_many(rho, s)
    # log s = log 4 + log y1 + log y2 - log den: the scaled y are y 2^shift.
    rows = zip(*(np.ravel(a).tolist() for a in (rho, s, y1, y2, shift, den)))
    vals = [math.log((1.0 + r) ** 2) - (math.log(a) + math.log(b) + 2 * (e + 1) * _LN2 - math.log(d))
            if t < _TINY else _k_from_rho(r, t) for r, t, a, b, e, d in rows]
    return vals[0] if rho.ndim == 0 else np.array(vals).reshape(rho.shape)


def horofunction_disc(xi, p, zeta) -> float:
    """Horofunction of the disc at xi, based at p, evaluated at zeta."""
    xi = complex(xi)
    if abs(abs(xi) - 1.0) > 1e-9:
        raise DomainError("xi must lie on the unit circle")
    p = _require_disc(p, "p")
    zeta = _require_disc(zeta)
    num = (1.0 - abs(p) ** 2) * abs(xi - zeta) ** 2
    den = abs(xi - p) ** 2 * (1.0 - abs(zeta) ** 2)
    return math.log(num) - math.log(den)


# ---------------------------------------------------------------------------
# Annulus A_r = {r < |z| < 1} via the strip covering.
#
# The strip S = {log r < Re zeta < 0} covers A_r by zeta -> exp(zeta),
# with deck group zeta -> zeta + 2 pi i k.  E below maps S conformally
# onto the upper half-plane, sending the boundary line Re zeta = 0 to
# the negative real axis with E(0) = -1.
# ---------------------------------------------------------------------------


def _strip_exp(r, zeta):
    W = -math.log(r)
    return np.exp(1j * math.pi * (zeta - math.log(r)) / W)


def _check_annulus(r, z, name="z"):
    if not (0.0 < r < 1.0):
        raise DomainError("annulus radius must satisfy 0 < r < 1")
    z = complex(z)
    if not (r < abs(z) < 1.0):
        raise DomainError(f"{name} must satisfy r < |{name}| < 1, got |{name}| = {abs(z):.6g}")
    return z


def annulus_distance(r, z, w) -> float:
    """Hyperbolic distance on the annulus {r < |z| < 1}.

    Minimizes the strip distance over deck translates of one lift.  The
    translate k multiplies the half-plane image by exp(-2 pi^2 k / W),
    which gives the lower bound |log(Im ratio) + 2 pi^2 k / W| used to
    stop the search.
    """
    z = _check_annulus(r, z, "z")
    w = _check_annulus(r, w, "w")
    if z == w:
        return 0.0
    W = -math.log(r)
    a = np.log(z)
    b = np.log(w)
    ua = complex(_strip_exp(r, a))
    ub0 = complex(_strip_exp(r, b))
    la = math.log(ua.imag)
    lb = math.log(ub0.imag)
    step = 2.0 * math.pi ** 2 / W

    best = _upper_distance(ua, ub0)
    for sign in (1, -1):
        k = sign
        while abs(la - lb + step * k) <= best:
            scale = math.exp(-step * k)
            cand = _upper_distance(ua, ub0 * scale)
            best = min(best, cand)
            k += sign
            if abs(k) > 64:
                break
    return best


def _log_poisson_upper(w) -> float:
    """log of the upper half-plane kernel magnitude at boundary point -1."""
    return math.log(w.imag) - 2.0 * math.log(abs(w + 1.0))


def annulus_horofunction(r, xi, p, z) -> float:
    """Horofunction of the annulus at an outer-circle point xi, base p.

    p must be real with r < p < 1.  The closed form minimizes the strip
    horofunction over deck lifts of z.
    """
    xi = complex(xi)
    if abs(abs(xi) - 1.0) > 1e-9:
        raise UnsupportedDomainError("horofunction target must lie on the outer circle")
    if abs(complex(p).imag) > 1e-15:
        raise DomainError("base point p must be real")
    p = float(complex(p).real)
    if not (r < p < 1.0):
        raise DomainError("base point must satisfy r < p < 1")
    z = _check_annulus(r, z, "z")
    phase = xi / abs(xi)
    zr = z * np.conj(phase)
    base = _log_poisson_upper(complex(_strip_exp(r, math.log(p))))
    lift0 = np.log(zr)
    best = -math.inf
    for k in range(-2, 3):
        w = complex(_strip_exp(r, lift0 + 2j * math.pi * k))
        if w.imag <= 0:
            continue
        best = max(best, _log_poisson_upper(w))
    return base - best
