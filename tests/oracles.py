"""Reference implementations that the tests compare the package against.

Each is an independent route to a quantity the package computes
another way: the disc and half-plane kernels and the Cayley transform in
closed form, the kernel pulled back along a catalogued geodesic, the strip distance on one lift, a radial angular-derivative
ladder with its own cut rules, a Monte-Carlo boundary measure, and the
one-pair disc, ball and half-plane distance formulas in Python's scalar
arithmetic, which the package's stacked distances must match bit for bit, the
nearest boundary point of one point kind by kind, which the package's
stacked projection must match bit for bit, the two
distance bounds centre by centre and point by point, which the stacked
slice march and the cached supporting points must match bit for bit,
the exact egg distance of one pair route by route, which the stacked
egg distances must match bit for bit, the ellipsoid nearest-point
Newton run in Python floats per (row, seed), which the array Newton must
match bit for bit, the gauge of one point by one brentq, which the
lockstep gauge must match bit for bit, the horofunction of one point
pair with its own ladder, which the stacked horofunction rows must
match bit for bit, log tanh(k/2) in multiple
precision, at 50 digits the kernel of an ellipsoid at a z0-axis point
and any boundary point by Omega = -dG/dn, the complex Hessian of the
kernel at e1 of a ball or egg by the quotient rule and the boundary
density of a ball or egg in C^2 by its closed form, and the step-halved Richardson
5-point Laplacian.  Besides these, a few readings
of package objects that only the tests need: whether a domain kind has
a closed-form kernel, and a quadrature's total weight and CSV dump.
Last, the CLI's output writers one row and one cell at a time: CSV with
its own float formatting, and JSON by cli._dumps on one dict per row.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass

import mpmath
import numpy as np

from pluripot import domain_core, geodesics_metrics, hyperbolic_models, laplacian_1d
from pluripot._extrap import extrapolate, normal_ladder
from pluripot.domain_core import Domain, as_point, boundary_point, defining_function, require_interior
from pluripot.errors import ConvergenceError, DomainError, UnsupportedDomainError
from pluripot.geodesics_metrics import (_N_CENTERS, _N_RAYS, _lattice_directions, egg_geodesic,
                                        egg_invert)
from pluripot.hyperbolic_models import _k_from_rho, _require_disc, _strip_exp, _upper_distance
from pluripot.kernels import KernelValue, _egg_axis_phase, _no_closed_form, poisson_kernel


def cayley(zeta) -> complex:
    """Cayley transform of the disc onto {Re w < 0}; 0 maps to -1."""
    zeta = complex(zeta)
    if zeta == -1.0:
        raise DomainError("the Cayley transform has a pole at -1")
    return (zeta - 1.0) / (zeta + 1.0)


def cayley_inverse(w) -> complex:
    w = complex(w)
    if w == 1.0:
        raise DomainError("the inverse Cayley transform has a pole at 1")
    return (1.0 + w) / (1.0 - w)


def poisson_disc(zeta, xi=1.0) -> float:
    """Boundary kernel of the disc at boundary point xi: -(1-|z|^2)/|xi-z|^2."""
    zeta = _require_disc(zeta)
    xi = complex(xi)
    if abs(abs(xi) - 1.0) > 1e-9:
        raise DomainError("xi must lie on the unit circle")
    return -(1.0 - abs(zeta) ** 2) / abs(xi - zeta) ** 2


def poisson_halfplane(zeta) -> float:
    """Boundary kernel of {Re w < 0} at the boundary point 0: 2 Re(1/w)."""
    zeta = complex(zeta)
    if zeta.real >= 0:
        raise DomainError("point must satisfy Re w < 0")
    return 2.0 * (1.0 / zeta).real


def poisson_geodesic(dom: Domain, xi, z) -> float:
    """Omega_xi(z) as the disc kernel pulled back along the catalogued
    geodesic through z ending at xi, divided by its boundary normal
    derivative: on the disc and the ball, and on an egg of C^2 at a
    z0-axis xi (UnsupportedDomainError elsewhere).  The independent
    reference for the closed-form kernel."""
    xi = boundary_point(dom, xi)
    z = require_interior(dom, z, "z")
    if dom.kind in ("disc", "ball"):
        return -1.0 / geodesics_metrics.ball_geodesic(z, xi).normal_derivative
    phase = _egg_axis_phase(dom, xi) if dom.kind == "ellipsoid" and dom.n == 2 else None
    if phase is None:
        raise UnsupportedDomainError(f"no catalogued geodesic kernel for {dom.label} here")
    m = dom.m[0]
    zr = np.array([z[0] * np.conj(phase), z[1]])
    a, zeta = egg_invert(m, zr)
    phi = egg_geodesic(m, a)
    if np.linalg.norm(phi(zeta) - zr) > 1e-9 * (1.0 + np.linalg.norm(zr)):
        raise ConvergenceError("egg geodesic inversion failed to reconstruct the point")
    return -(1.0 - abs(zeta) ** 2) / abs(1.0 - zeta) ** 2 / phi.normal_derivative


def disc_distance_formula(z1, z2) -> float:
    """Hyperbolic distance of the unit disc, one pair in scalar arithmetic."""
    z1 = _require_disc(z1, "z1")
    z2 = _require_disc(z2, "z2")
    den = abs(1.0 - np.conj(z2) * z1) ** 2
    rho = abs(z1 - z2) / math.sqrt(den)
    s = (1.0 - abs(z1) ** 2) * (1.0 - abs(z2) ** 2) / den
    return _k_from_rho(rho, s)


def halfplane_distance_formula(w1, w2) -> float:
    """Hyperbolic distance on {Re w < 0}, one pair in scalar arithmetic:
    the upper half-plane distance of u = -i w, after scaling both points
    by the power of two of the pair's largest coordinate."""
    w1, w2 = complex(w1), complex(w2)
    if w1.real >= 0 or w2.real >= 0:
        raise DomainError("points must satisfy Re w < 0")
    u1, u2 = -1j * w1, -1j * w2
    scale = math.ldexp(1.0, -math.frexp(max(abs(u1.real), u1.imag, abs(u2.real), u2.imag))[1])
    u1, u2 = u1 * scale, u2 * scale
    den = abs(u1 - u2.conjugate()) ** 2
    rho = abs(u1 - u2) / math.sqrt(den)
    s = 4.0 * u1.imag * u2.imag / den
    return _k_from_rho(rho, s)


def ball_distance_formula(z, w) -> float:
    """Hyperbolic distance of the unit ball, one pair of points (n,)."""
    nz = float(np.linalg.norm(z))
    nw = float(np.linalg.norm(w))
    if nz >= 1.0 or nw >= 1.0:
        raise DomainError("points must lie in the open ball")
    zw = complex(np.sum(z * np.conj(w)))
    den = abs(1.0 - zw) ** 2
    if nw < 1e-14 or nz < 1e-14:
        rho = float(np.linalg.norm(z - w)) / abs(1.0 - zw)
    else:
        # Moebius automorphism sending w to 0, applied to z.
        pw = (zw / (nw * nw)) * w
        qw = z - pw
        sw = math.sqrt(max(0.0, 1.0 - nw * nw))
        vec = (w - pw - sw * qw) / (1.0 - zw)
        rho = float(np.linalg.norm(vec))
    s = (1.0 - nz * nz) * (1.0 - nw * nw) / den
    return _k_from_rho(min(rho, 1.0), s)


def egg_distance_one_pair(dom: Domain, z, w):
    """The exact distance of one pair of points (n,) of an ellipsoid, or
    None: the ball formula when every m_j is 2, the disc distance of two
    z0-axis points or within a common catalogued geodesic (n = 2), and
    otherwise, with one point on the axis, log((1 + mu) / (1 - mu)) for
    the gauge mu of the other after the automorphism moving the axis
    point to 0, each in one-point arithmetic."""
    if np.linalg.norm(z - w) < 1e-15:
        return 0.0
    if all(mj == 2 for mj in dom.m):
        return ball_distance_formula(z, w)
    z_axis, w_axis = (bool(np.max(np.abs(p[1:])) < 1e-13) for p in (z, w))
    if z_axis and w_axis:
        return disc_distance_formula(z[0], w[0])
    if dom.n == 2:
        m = dom.m[0]
        az, zz = egg_invert(m, z)
        aw, zw = egg_invert(m, w)
        if abs(az - aw) <= 1e-11 * (1.0 + abs(az)):
            phi = egg_geodesic(m, (az + aw) / 2.0)
            if (np.linalg.norm(phi(zz) - z) <= 1e-10 * (1.0 + np.linalg.norm(z))
                    and np.linalg.norm(phi(zw) - w) <= 1e-10 * (1.0 + np.linalg.norm(w))
                    and abs(zz) < 1.0 and abs(zw) < 1.0):
                return disc_distance_formula(zz, zw)
    if not (z_axis or w_axis):
        return None
    axis_pt, other = (z, w) if z_axis else (w, z)
    alpha = complex(axis_pt[0])
    den = 1.0 - np.conj(alpha) * other[..., 0]
    moved = np.empty_like(other)
    moved[..., 0] = (other[..., 0] - alpha) / den
    for j, mj in enumerate(dom.m):
        fac = np.power(1.0 - abs(alpha) ** 2, 1.0 / mj)
        moved[..., j + 1] = other[..., j + 1] * fac / np.power(den, 2.0 / mj)
    mu = gauge_one_point(dom, moved)
    return math.log1p(mu) - math.log1p(-mu)


def log_tanh_half(k) -> float:
    """log tanh(k/2) in 60-digit arithmetic, rounded once to a float."""
    with mpmath.workdps(60):
        return float(mpmath.log(mpmath.tanh(mpmath.mpf(k) / 2)))


def inscribed_disc_radius(dom: Domain, center, direction) -> float:
    """Certified radius of a round disc inside the slice through center.

    Marches _N_RAYS rays by bisection; the returned value shrinks the
    minimal certified-inside radius by cos(pi / _N_RAYS), the inradius
    factor of the inscribed polygon of a convex slice.
    """
    thetas = np.exp(2j * np.pi * np.arange(_N_RAYS) / _N_RAYS)
    offsets = thetas[:, None] * direction[None, :]

    def inside(t):
        pts = center[None, :] + t[:, None] * offsets
        return defining_function(dom, pts) < 0.0

    lo = np.zeros(_N_RAYS)
    hi = np.full(_N_RAYS, 0.5)
    for _ in range(16):
        mask = inside(hi)
        if not mask.any():
            break
        lo[mask] = hi[mask]
        hi[mask] *= 2.0
        if np.max(hi) > 64.0:
            raise UnsupportedDomainError("slice bound needs a bounded domain")
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if ((mid == lo) | (mid == hi)).all():
            break  # each bracket is two adjacent floats: no later step moves lo
        mask = inside(mid)
        lo[mask] = mid[mask]
        hi[~mask] = mid[~mask]
    return float(np.min(lo)) * math.cos(math.pi / _N_RAYS) - 1e-12


def slice_upper_bound_per_centre(dom: Domain, z, w, _depth=0) -> float:
    """The slice upper bound with each centre's disc marched on its own."""
    z = as_point(dom, z)
    w = as_point(dom, w)
    sep = float(np.linalg.norm(z - w))
    if sep < 1e-15:
        return 0.0
    direction = (w - z) / sep
    pairs = []
    for sfrac in np.linspace(0.0, 1.0, _N_CENTERS):
        center = z + sfrac * (w - z)
        radius = inscribed_disc_radius(dom, center, direction)
        if radius <= 0.0:
            continue
        tz = complex(np.sum((z - center) * np.conj(direction)))
        tw = complex(np.sum((w - center) * np.conj(direction)))
        if abs(tz) >= radius or abs(tw) >= radius:
            continue
        pairs.append((tz / radius, tw / radius))
    best = math.inf
    if pairs:
        best = min([best] + hyperbolic_models.disc_distance(*np.array(pairs).T).tolist())
    if math.isinf(best):
        if _depth >= 6:
            raise ConvergenceError("slice bound subdivision failed to capture the pair")
        mid = 0.5 * (z + w)
        return (slice_upper_bound_per_centre(dom, z, mid, _depth + 1)
                + slice_upper_bound_per_centre(dom, mid, w, _depth + 1))
    return best


# The lattice boundary points of caratheodory_lower_bound_per_pair, by (kind, n, m).
_LATTICE_POINTS = {}


def caratheodory_lower_bound_per_pair(dom: Domain, z, w) -> float:
    """The supporting half-space lower bound of a balanced kind, with the
    lattice boundary points found point by point (once per kind, n and m),
    and their normals and the half-plane images found anew point by
    point."""
    if dom.kind not in ("disc", "ball", "ellipsoid"):
        raise UnsupportedDomainError("reference implemented for the balanced kinds")
    z = as_point(dom, z)
    w = as_point(dom, w)
    if np.linalg.norm(z - w) < 1e-15:
        return 0.0
    key = (dom.kind, dom.n, dom.m)
    if key not in _LATTICE_POINTS:
        _LATTICE_POINTS[key] = [v / gauge_one_point(dom, v) for v in _lattice_directions(dom.n, 64 * dom.n)]
    pts = _LATTICE_POINTS[key] + [boundary_project_one_point(dom, base)[0].position for base in (z, w)]
    best = 0.0
    for eta in pts:
        nrm = domain_core.unit_normal(dom, eta)
        pz = complex(np.sum((z - eta) * np.conj(nrm)))
        pw = complex(np.sum((w - eta) * np.conj(nrm)))
        if pz.real >= 0.0 or pw.real >= 0.0:
            continue
        best = max(best, halfplane_distance_formula(pz, pw))
    return best


@dataclass(frozen=True)
class AngularApproach:
    """A non-tangential approach ladder t_k = 1 - 2^{-k} toward xi.

    M is the Stolz-region aperture the ladder is certified for; the
    radial ladder used here lies in every aperture M > 1.
    """

    xi: complex
    aperture: float = 2.0
    count: int = 40

    def __post_init__(self):
        if abs(abs(complex(self.xi)) - 1.0) > 1e-9:
            raise DomainError("approach target must lie on the unit circle")
        if self.aperture <= 1.0:
            raise DomainError("Stolz aperture must exceed 1")
        if self.count < 4:
            raise DomainError("approach ladder needs at least 4 rungs")

    @property
    def M(self) -> float:
        return self.aperture

    def parameters(self):
        return 1.0 - 0.5 ** np.arange(1, self.count + 1)

    def points(self):
        return self.parameters() * complex(self.xi)


def angular_derivative(f, xi) -> complex:
    """Angular derivative of a holomorphic self-map of the disc at xi.

    Extrapolates the difference quotients (sigma - f(z_k)) / (xi - z_k)
    along the radial ladder AngularApproach(xi), where sigma is the
    extrapolated boundary value of f.  A mismatch above 1e-4 between |result| and the Julia
    modulus ladder (1-|f(z)|)/(1-|z|) triggers a warning.
    """
    xi = complex(xi)
    pts = AngularApproach(xi=xi).points()
    fv = np.array([complex(f(z)) for z in pts])
    # Ladder values converge geometrically until they hit the roundoff
    # plateau; the boundary value must be extrapolated from clean rungs.
    fgaps = np.abs(np.diff(fv))
    fcut = len(fv)
    for i in range(3, len(fgaps)):
        if fgaps[i] > 0.8 * fgaps[i - 1] and fgaps[i - 1] > 0.0:
            fcut = i + 1
            break
    sigma, _ = extrapolate(fv[:fcut], "boundary value")
    quotients = (sigma - fv) / (xi - pts)
    # The boundary-value estimate's error is amplified by 1/(1 - t_k), so
    # the deepest rungs are noise; keep the prefix where successive gaps
    # still shrink and extrapolate that.
    gaps = np.abs(np.diff(quotients))
    cut = len(quotients)
    for i in range(3, len(gaps)):
        if gaps[i] > 1.25 * gaps[i - 1] and gaps[i - 1] > 0.0:
            # Back off one more rung so the kept tail is still dominated
            # by the decaying mode rather than the amplified one.
            cut = max(4, i - 1)
            break
    value, _ = extrapolate(quotients[:cut], "angular derivative")
    moduli = ((1.0 - np.abs(fv)) / (1.0 - np.abs(pts)))[:cut]
    mod_est, _ = extrapolate(moduli, "Julia modulus")
    if abs(abs(value) - mod_est) > 1e-4 * (1.0 + abs(value)):
        warnings.warn(f"angular derivative modulus check off by "
                      f"{abs(abs(value) - mod_est):.3e}; the boundary point may be irregular")
    return complex(value)


def strip_distance(r, a, b) -> float:
    """Hyperbolic distance on the strip {log r < Re < 0}."""
    return _upper_distance(complex(_strip_exp(r, a)), complex(_strip_exp(r, b)))


def montecarlo_surface_measure(dom: Domain, n_samples=10_000_000, eps=5e-3, seed=20240518) -> float:
    """Monte-Carlo estimate of the total boundary measure.

    Counts uniform box samples in the two-sided shell
    {|rho| / ||grad rho|| < eps}; the shell volume divided by 2 eps
    estimates the surface area, with O(eps^2) curvature bias.
    """
    if dom.kind not in ("ball", "ellipsoid"):
        raise UnsupportedDomainError("surface oracle implemented for balanced bounded kinds")
    n = dom.n
    rng = np.random.default_rng(seed)
    box_vol = 2.0 ** (2 * n)
    hits = 0
    chunk = 1_000_000
    done = 0
    while done < n_samples:
        take = min(chunk, n_samples - done)
        raw = rng.uniform(-1.0, 1.0, size=(take, 2 * n))
        pts = raw[:, :n] + 1j * raw[:, n:]
        rho = defining_function(dom, pts)
        grad = domain_core.gradient(dom, pts)
        gn = np.linalg.norm(grad, axis=1)
        ok = gn > 1e-12
        hits += int(np.count_nonzero(np.abs(rho[ok]) / gn[ok] < eps))
        done += take
    return hits / n_samples * box_vol / (2.0 * eps)


def interior_samples_one_at_a_time(dom: Domain, count, rng, gauge_lo=0.15, gauge_hi=0.7,
                                   min_axis_gap=0.0, min_tangential=0.0):
    """The verify suites' interior sampler, gauging each candidate as it
    is drawn; the package's sampler gauges a round's candidates as one
    stack and must give the same points and leave rng in the same state."""
    out = []
    while len(out) < count:
        raw = rng.standard_normal(2 * dom.n)
        v = raw[:dom.n] + 1j * raw[dom.n:]
        g = gauge_one_point(dom, v)
        if not g > 0:
            continue
        z = v / g * rng.uniform(gauge_lo, gauge_hi)
        if min_axis_gap and abs(1.0 - z[0]) < min_axis_gap:
            continue
        if min_tangential and dom.n >= 2 and min(abs(c) for c in z[1:]) < min_tangential:
            continue
        out.append(z)
    return out


def closed_form_poisson(dom: Domain) -> bool:
    """Whether the boundary kernel of the domain's kind has a closed form."""
    return dom.kind in ("disc", "half_plane", "ball", "ellipsoid")


def total_weight(quad) -> float:
    """The sum of a BoundaryQuadrature's weights: the boundary volume."""
    return float(np.sum(quad.weights))


def polar_chart_nodes_per_latitude(dom: Domain, resolution):
    """build_quadrature's points and weights on ball2 or a 2-D egg, one
    latitude block of resolution^2 nodes at a time (z0 angle, then z1
    angle); the package builds all blocks in one broadcast."""
    m = dom.m[0] if dom.kind == "ellipsoid" else 2
    xg, wg = np.polynomial.legendre.leggauss(resolution)
    u = 0.25 * np.pi * (xg + 1.0)
    wu = wg * 0.25 * np.pi
    su, cu = np.sin(u), np.cos(u)
    radial1 = su ** (2.0 / m)
    guu = su ** 2 + (2.0 / m) ** 2 * su ** (4.0 / m - 2.0) * cu ** 2
    sigma = cu * radial1 * np.sqrt(guu)
    e0 = np.exp(1j * (2.0 * np.pi * np.arange(resolution) / resolution))
    K = resolution
    pts, weights = [], []
    for i in range(resolution):
        block = np.empty((K, K, 2), dtype=complex)
        block[..., 0] = cu[i] * e0[:, None]
        block[..., 1] = radial1[i] * e0[None, :]
        pts.append(block.reshape(-1, 2))
        weights.append(np.full(K * K, wu[i] * sigma[i] * (2.0 * np.pi / K) ** 2))
    return np.concatenate(pts), np.concatenate(weights)


def quadrature_csv(quad, target) -> None:
    """Write a BoundaryQuadrature's nodes as CSV: 2n position columns, weight, density."""
    n = quad.domain.n
    header = []
    for j in range(n):
        header += [f"re{j}", f"im{j}"]
    header += ["weight", "density"]
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for i in range(quad.points.shape[0]):
        row = []
        for j in range(n):
            row.append(format(quad.points[i, j].real, ".17g"))
            row.append(format(quad.points[i, j].imag, ".17g"))
        row.append(format(float(quad.weights[i]), ".17g"))
        row.append(format(float(quad.densities[i]), ".17g"))
        buf.write(",".join(row) + "\n")
    if hasattr(target, "write"):
        target.write(buf.getvalue())
    else:
        with open(target, "w") as fh:
            fh.write(buf.getvalue())


def _float_text(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def per_cell_csv(columns) -> str:
    """CSV of columns (a dict of header -> cells), one row and one cell at a
    time: a float at 17 significant digits, anything else by str."""
    lines = [",".join(columns)]
    for row in zip(*columns.values()):
        cells = []
        for v in row:
            cells.append(_float_text(float(v)) if isinstance(v, (float, np.floating)) else str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def per_row_json(columns) -> str:
    """JSON of columns (a dict of header -> cells): cli._dumps of
    {"schema": 1, "rows": [...]} with one dict per row."""
    from pluripot.cli import _dumps

    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    return _dumps({"schema": 1, "rows": rows}) + "\n"


def ellipsoid_nearest_per_pair(m, a):
    """The moduli of the nearest boundary points to the rows of a (k, n),
    with the seeds of a block of rows picked as the package picks them
    and each (row, seed) Newton run in Python floats, one at a time; the
    package's array Newton must give the same moduli bit for bit."""
    table, nbrs = domain_core._moduli_table(m)
    ex = (2,) + tuple(m)
    block = max(1, 262144 // nbrs.size)  # rows per (block, T, n(n - 1)) neighbour test
    out = []
    for start in range(0, len(a), block):
        rows = a[start:start + block]
        d2 = np.sum((table - rows[:, None, :]) ** 2, axis=-1)
        seeds = np.all(d2[:, :, None] <= d2[:, nbrs], axis=2)
        for ai, row_seeds, nearest in zip(rows.tolist(), seeds, d2.min(axis=1).tolist()):
            best, best_d2 = None, math.inf
            for i in np.flatnonzero(row_seeds).tolist():
                try:
                    s = kkt_newton_python_floats(ex, ai, table[i].tolist())
                except ConvergenceError:
                    continue
                dist2 = sum((sj - aj) ** 2 for sj, aj in zip(s, ai))
                if dist2 < best_d2:
                    best, best_d2 = s, dist2
            if best is None:
                raise ConvergenceError("ellipsoid nearest-point Newton did not converge")
            if not math.sqrt(best_d2) <= math.sqrt(nearest) + 1e-12:
                raise ConvergenceError("ellipsoid projection lost the nearest boundary point")
            out.append(best)
    return np.reshape(out, a.shape)


def kkt_newton_python_floats(ex, a, s):
    """Newton on s_j - lam e_j s_j^(e_j - 1) = a_j, sum_j s_j^e_j = 1."""
    g = [e * sj ** (e - 1) for e, sj in zip(ex, s)]
    lam = sum(gj * (sj - aj) for gj, sj, aj in zip(g, s, a)) / sum(gj * gj for gj in g)
    for _ in range(50):
        g = [e * sj ** (e - 1) for e, sj in zip(ex, s)]
        d = [1.0 - lam * e * (e - 1) * sj ** (e - 2) for e, sj in zip(ex, s)]
        b = [aj - sj + lam * gj for aj, sj, gj in zip(a, s, g)]
        c = 1.0 - sum(sj ** e for e, sj in zip(ex, s))
        try:
            x, y = bordered_solve_python_floats(d, g, b, c)
        except (ZeroDivisionError, np.linalg.LinAlgError):
            break
        s = [sj + xj for sj, xj in zip(s, x)]
        lam += y
        step = max(abs(xj) for xj in x)
        if step <= 1e-13:
            return s
        if not math.isfinite(step):
            break
    raise ConvergenceError("ellipsoid nearest-point Newton did not converge")


def bordered_solve_python_floats(d, g, b, c):
    """Solve d_j x_j - g_j y = b_j for every j and sum_j g_j x_j = c.

    This is the Newton system of the nearest-point KKT equations.  For
    n = 2 it is eliminated in closed form (Cramer's rule, which never
    divides by d_j: d_j may vanish on the way).
    """
    if len(d) == 2:
        (d0, d1), (g0, g1), (b0, b1) = d, g, b
        det = g0 * g0 * d1 + g1 * g1 * d0
        return ([(b0 * g1 * g1 + g0 * (c * d1 - g1 * b1)) / det,
                 (b1 * g0 * g0 + g1 * (c * d0 - g0 * b0)) / det],
                (c * d0 * d1 - g0 * b0 * d1 - g1 * b1 * d0) / det)
    n = len(d)
    jac = np.zeros((n + 1, n + 1))
    jac[:n, :n] = np.diag(d)
    jac[:n, n] = [-gj for gj in g]
    jac[n, :n] = g
    sol = np.linalg.solve(jac, b + [c])
    return sol[:n].tolist(), float(sol[n])


def boundary_project_one_point(domain: Domain, z):
    """Nearest boundary point of one interior z, as (BoundaryPoint,
    delta), by each kind's own route: the closed forms of the disc, ball,
    half-plane and annulus, the ellipsoid moduli by
    ellipsoid_nearest_per_pair, and the general_convex shooting loop
    (which returns its last foot, settled or not).  The package's
    projection of a point or a stack must give each row these bits,
    except delta at 0 < |z| < 1e-12 on the disc and ball: 1 here,
    1 - |z| there."""
    pt = as_point(domain, z)
    if not float(defining_function(domain, pt)) < 0.0:
        raise DomainError("boundary_project requires an interior point")
    boundary_point = domain_core.boundary_point
    e1 = np.zeros(domain.n, dtype=complex)
    e1[0] = 1.0
    k = domain.kind

    if k in ("disc", "ball"):
        norm = float(np.linalg.norm(pt))
        if norm < 1e-12:
            return boundary_point(domain, e1), 1.0
        return boundary_point(domain, pt / norm), 1.0 - norm

    if k == "half_plane":
        xi = np.array([1j * pt[0].imag], dtype=complex)
        return boundary_point(domain, xi), -float(pt[0].real)

    if k == "annulus":
        mag = float(abs(pt[0]))
        douter = 1.0 - mag
        dinner = mag - domain.r
        phase = pt[0] / mag
        if douter <= dinner:
            return boundary_point(domain, np.array([phase])), douter
        return boundary_point(domain, np.array([domain.r * phase])), dinner

    if k == "ellipsoid":
        mags = np.abs(pt)
        if mags.max() < 1e-12:
            return boundary_point(domain, e1), 1.0
        phase = np.divide(pt, mags, out=np.ones_like(pt), where=mags > 0.0)
        xi = phase * ellipsoid_nearest_per_pair(domain.m, mags[None])[0]
        return boundary_point(domain, xi), float(np.linalg.norm(pt - xi))

    xi = domain_core._any_outward_seed(domain, pt)
    for _ in range(100):
        nrm = domain_core.unit_normal(domain, xi)
        xi_new = domain_core._shoot_to_boundary(domain, pt, nrm)
        if float(np.linalg.norm(xi_new - xi)) <= 1e-14:
            xi = xi_new
            break
        xi = xi_new
    return boundary_point(domain, xi), float(np.linalg.norm(pt - xi))


def gauge_one_point(dom: Domain, z) -> float:
    """The Minkowski gauge of one point of a balanced kind: its norm, or
    for an ellipsoid the root of the excess sum_j (|z_j|/t)^e_j - 1 by
    one domain_core.brentq (a module attribute, which a test may swap),
    with the excess summed by Python's sum.  The package's lockstep
    gauge must give each row these bits."""
    if dom.kind not in ("disc", "ball", "ellipsoid"):
        raise UnsupportedDomainError(f"gauge undefined for kind {dom.kind}")
    pts = as_point(dom, z)
    if not np.isfinite(pts).all():
        raise DomainError("the gauge needs finite coordinates")
    if dom.kind != "ellipsoid":
        return float(np.linalg.norm(pts))
    mags = np.abs(pts)
    top = float(mags.max())
    if top == 0.0:
        return 0.0
    ex = np.array((2.0,) + dom.m)

    def excess(mu):
        return sum(((mags / mu) ** ex).tolist()) - 1.0

    lo = top
    while excess(lo) < 0.0:
        lo *= 0.5
    hi = 2.0 * lo
    while excess(hi) > 0.0:
        hi *= 2.0
    return domain_core.brentq(excess, lo, hi, xtol=1e-300)


def horofunction_one_point(dom: Domain, xi, p, z, method="auto") -> KernelValue:
    """kernels.horofunction of one pair (p, z) by its own ladder: the
    kernel form from two one-point poisson_kernel calls, where both
    return (for method "kernel" only closed forms), or the limit of
    k(z, w_j) - k(w_j, p) from one _distance_rows call on the pairs
    (z, w_j), then (w_j, p).  The stacked horofunction rows must give
    each row these bits."""
    xi = boundary_point(dom, xi)
    p = require_interior(dom, p, "p")
    z = require_interior(dom, z, "z")
    if method not in ("auto", "kernel", "ladder"):
        raise DomainError(f"unknown horofunction method {method!r}")

    if method != "ladder":
        try:
            kp, kz = poisson_kernel(dom, xi, p), poisson_kernel(dom, xi, z)
        except (ConvergenceError, UnsupportedDomainError):  # no exact kernel
            kp = kz = None
        if method == "kernel" and (kz is None or kz.method != "closed_form"):
            raise _no_closed_form(dom)
        if kz is not None:
            return KernelValue(math.log(-kp.value) - math.log(-kz.value), kz.method, 0.0)

    js = range(4, 12) if dom.kind == "annulus" else range(1, 9)
    ws = np.array(normal_ladder(dom, xi, js))
    k = len(ws)
    # The pairs (z, w_j), then (w_j, p).
    zs = np.concatenate([np.broadcast_to(z, ws.shape), ws])
    dist, width = geodesics_metrics._distance_rows(dom, zs, np.concatenate([ws, np.broadcast_to(p, ws.shape)]))
    vals = [a - b for a, b in zip(dist[:k], dist[k:])]
    widths = max([0.0] + [a + b for a, b in zip(width[:k], width[k:])])
    est, unc = extrapolate(vals, "horofunction")
    return KernelValue(float(est), "limit_ladder", float(unc + 0.5 * widths))


def axis_kernel_mp(m, xi, a) -> float:
    """Omega_xi(z) of the ellipsoid |z_0|^2 + sum_j |z_j|^{m_j} < 1 at
    z = (a, 0, ..., 0) and a boundary point xi, by Omega = -dG_z/dn at
    50 digits, as the identity reads before any reduction:
    -d rho_q[u] / d rho_q[q], with q = F_a(xi), u = F_a'(xi) n_xi and
    d rho_q[v] = 2 Re(conj(q_0) v_0) + sum_j m_j |q_j|^{m_j - 2} Re(conj(q_j) v_j).
    F_a, the automorphism moving z to 0 with G_z = log gauge(F_a), is
    ((w_0 - a)/D, w_j (1 - |a|^2)^{1/m_j} D^{-2/m_j}), D = 1 - conj(a) w_0,
    and its derivative is written out by hand; n_xi is the unit normal of
    the gradient (2 xi_0, m_j |xi_j|^{m_j - 2} xi_j)."""
    with mpmath.workdps(50):
        xi = [mpmath.mpc(complex(c)) for c in xi]
        a = mpmath.mpc(complex(a))
        g = [2 * xi[0]] + [mj * abs(x) ** (mj - 2) * x for mj, x in zip(m, xi[1:])]
        gn = mpmath.sqrt(sum(abs(c) ** 2 for c in g))
        nv = [c / gn for c in g]
        fac = 1 - abs(a) ** 2
        D = 1 - mpmath.conj(a) * xi[0]
        scale = [mpmath.power(fac, mpmath.mpf(1) / mj) * mpmath.power(D, -mpmath.mpf(2) / mj) for mj in m]
        q = [(xi[0] - a) / D] + [s * x for s, x in zip(scale, xi[1:])]
        u = [fac * nv[0] / D ** 2] + [s * (nj + (mpmath.mpf(2) / mj) * mpmath.conj(a) * x * nv[0] / D)
                                      for s, mj, x, nj in zip(scale, m, xi[1:], nv[1:])]

        def drho(v):
            return (2 * mpmath.re(mpmath.conj(q[0]) * v[0])
                    + sum(mj * abs(qj) ** (mj - 2) * mpmath.re(mpmath.conj(qj) * vj)
                          for mj, qj, vj in zip(m, q[1:], v[1:])))

        return float(-drho(u) / drho(q))


def kernel_hessian_mp(m, z):
    """Complex Hessian of Omega_{e1}(z) = -N / D at 50 digits, by the
    quotient rule on N = 1 - |z_0|^2 - sum_{j>=1} |z_j|^{m_j} and
    D = |1 - z_0|^2; m = (2,) * (n - 1) is the ball of C^n.  A list of
    rows of mpmath.mpc."""
    with mpmath.workdps(50):
        z = [mpmath.mpc(complex(c)) for c in z]
        n = len(z)
        N = 1 - abs(z[0]) ** 2 - sum(abs(z[j]) ** m[j - 1] for j in range(1, n))
        D = abs(1 - z[0]) ** 2
        # d/dz_j of N and D; their dzbar derivatives are the conjugates.
        Nj = [-mpmath.conj(z[0])] + [-(mpmath.mpf(m[j - 1]) / 2) * abs(z[j]) ** (m[j - 1] - 2)
                                     * mpmath.conj(z[j]) for j in range(1, n)]
        Dj = [-(1 - mpmath.conj(z[0]))] + [mpmath.mpc(0)] * (n - 1)
        Njk = [-1] + [-(mpmath.mpf(m[j - 1]) / 2) ** 2 * abs(z[j]) ** (m[j - 1] - 2) for j in range(1, n)]
        rows = []
        for j in range(n):
            row = []
            for k in range(n):
                # d^2 (N / D) / dz_j dzbar_k; only D_{0 0bar} = 1 of D's is not 0.
                f = (2 * N * Dj[j] * mpmath.conj(Dj[k]) / D ** 3
                     - (Nj[j] * mpmath.conj(Dj[k]) + Dj[j] * mpmath.conj(Nj[k])) / D ** 2)
                if j == k:
                    f += Njk[j] / D
                if j == k == 0:
                    f -= N / D ** 2
                row.append(-f)
            rows.append(row)
        return rows


def egg_density_mp(m, xi) -> float:
    """Boundary density of the egg |z_0|^2 + |z_1|^m < 1 (the ball for
    m = 2) at a boundary point xi of C^2, from the gradient g and the
    tangential Levi form at 50 digits:
    4 (|g_1|^2 + (m^2/4) |z_1|^(m-2) |g_0|^2) / |g|^3."""
    with mpmath.workdps(50):
        z0, z1 = (mpmath.mpc(complex(c)) for c in xi)
        g0, g1 = 2 * z0, m * abs(z1) ** (m - 2) * z1
        gn2 = abs(g0) ** 2 + abs(g1) ** 2
        h11 = mpmath.mpf(m) ** 2 / 4 * abs(z1) ** (m - 2)
        return float(4 * (abs(g1) ** 2 + h11 * abs(g0) ** 2) / gn2 ** mpmath.mpf(1.5))


def laplacian_richardson(u, zeta, h):
    """(refined, gap) of the 5-point Laplacian of u at a point of C: the
    step-halved extrapolation (4 L(h/2) - L(h)) / 3 and the raw
    discrepancy |L(h/2) - L(h)|."""
    plain = laplacian_1d(u, zeta, h)
    half = laplacian_1d(u, zeta, h / 2.0)
    return (4.0 * half - plain) / 3.0, abs(half - plain)
