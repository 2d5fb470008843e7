"""Domain construction, boundary projection, Levi data, line type."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pluripot import (
    ConvergenceError,
    DomainError,
    UnsupportedDomainError,
    boundary_distance,
    boundary_point,
    boundary_project,
    defining_function,
    domain_core,
    levi_data,
    line_type,
    make_domain,
    minkowski_gauge,
    unit_normal,
)

from pluripot.domain_core import _row_norm, gradient

from oracles import (boundary_project_one_point, closed_form_poisson, ellipsoid_nearest_per_pair,
                     gauge_one_point)


def test_make_domain_egg4():
    dom = make_domain("egg4")
    assert dom.kind == "ellipsoid"
    assert dom.n == 2
    assert tuple(dom.m) == (4,)
    assert closed_form_poisson(dom)


def test_make_domain_ball1_is_disc():
    dom = make_domain({"kind": "ball", "n": 1})
    assert dom.n == 1
    assert abs(defining_function(dom, [0.5]) - (-0.75)) < 1e-15


def test_make_domain_rejects_bad_parameters():
    with pytest.raises(DomainError):
        make_domain({"kind": "ellipsoid", "m": [3]})
    with pytest.raises(DomainError):
        make_domain({"kind": "annulus", "r": 1.5})
    with pytest.raises(DomainError):
        make_domain({"kind": "annulus", "r": 0.0})
    with pytest.raises(DomainError):
        make_domain({"kind": "ball", "n": 0})


def test_defining_function_signs():
    for spec in ("disc", "ball2", "egg4", "ball3"):
        dom = make_domain(spec)
        origin = np.zeros(dom.n)
        assert defining_function(dom, origin) < 0
        e1 = np.zeros(dom.n, dtype=complex)
        e1[0] = 1.0
        assert abs(defining_function(dom, e1)) < 1e-12


_ULP = 2.0 ** -52
_BUILT_IN_SPECS = ("disc", "half_plane", "ball2", "ball3", "egg2", "egg4", "egg6", "annulus",
                   {"kind": "ellipsoid", "m": [4, 4]}, {"kind": "ellipsoid", "m": [2, 4]},
                   {"kind": "ellipsoid", "m": [4, 6]})


def _on_the_boundary(dom, v, ulps):
    """v moved onto the boundary of dom, then ulps of its size out (ulps > 0) or in."""
    if dom.kind == "half_plane":
        return np.array([complex(ulps * _ULP * abs(v[0]), v[0].imag)])
    if dom.kind == "annulus":
        return v / abs(v[0]) * (dom.r if ulps % 2 else 1.0) * (1.0 + ulps * _ULP)
    return v / gauge_one_point(dom, v) * (1.0 + ulps * _ULP)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=st.sampled_from(_BUILT_IN_SPECS), count=st.integers(1, 12), data=st.data())
def test_one_point_and_any_stack_take_the_same_rho_and_gradient(spec, count, data):
    # defining_function and gradient of a point are bit for bit those of
    # the point in any stack: rows within 8 ulps of rho = 0 on either
    # side, on the coordinate axes, far out, and non-finite; stacks of
    # shape (k, n), (k, 1, n) and in Fortran order.
    dom = make_domain("annulus", r=0.5) if spec == "annulus" else make_domain(spec)
    part = st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-3)
    special = st.sampled_from((math.nan, math.inf, -math.inf, complex(math.inf, math.nan),
                               complex(0.0, -math.inf), 0.0))
    rows = []
    for _ in range(count):
        v = np.array([complex(data.draw(part), data.draw(part)) for _ in range(dom.n)])
        how = data.draw(st.sampled_from(("near", "axis", "inside", "huge", "special")))
        if how == "axis":
            v = np.zeros(dom.n, dtype=complex)
            v[data.draw(st.integers(0, dom.n - 1))] = data.draw(st.sampled_from((1, -1, 1j, -1j)))
        if how in ("near", "axis"):
            rows.append(_on_the_boundary(dom, v, data.draw(st.integers(-8, 8))))
        elif how == "inside":
            rows.append(_on_the_boundary(dom, v, 0) * data.draw(st.floats(0.0, 1.0)))
        elif how == "huge":
            rows.append(v * data.draw(st.sampled_from((1e10, 1e80, 1e155, 1e200))))
        else:
            v[data.draw(st.integers(0, dom.n - 1))] = data.draw(special)
            rows.append(v)
    stack = np.array(rows)
    # The annulus gradient is undefined at the origin, on a stack as alone.
    smooth = stack[np.abs(stack[:, 0]) > 0] if dom.kind == "annulus" else stack
    with np.errstate(all="ignore"):
        rho = np.array([defining_function(dom, z) for z in stack])
        grad = np.array([gradient(dom, z) for z in smooth]).reshape(smooth.shape)
        for shaped in (stack, stack[:, None, :], np.asfortranarray(stack)):
            assert defining_function(dom, shaped).tobytes() == rho.reshape(shaped.shape[:-1]).tobytes()
        for shaped in (smooth, smooth[:, None, :], np.asfortranarray(smooth)):
            got = np.ascontiguousarray(gradient(dom, shaped))
            assert got.tobytes() == grad.reshape(shaped.shape).tobytes()


def test_convexity_midpoint_spot_check():
    rng = np.random.default_rng(7)
    for spec in ("ball2", "egg4", "egg6"):
        dom = make_domain(spec)
        for _ in range(50):
            raw = rng.standard_normal(2 * dom.n)
            v = raw[: dom.n] + 1j * raw[dom.n :]
            z = v / minkowski_gauge(dom, v) * rng.uniform(0.1, 0.95)
            raw = rng.standard_normal(2 * dom.n)
            v = raw[: dom.n] + 1j * raw[dom.n :]
            w = v / minkowski_gauge(dom, v) * rng.uniform(0.1, 0.95)
            assert defining_function(dom, (z + w) / 2.0) < 0.0


def test_boundary_point_frame():
    dom = make_domain("egg4")
    bp = boundary_point(dom, [1.0, 0.0])
    assert abs(np.linalg.norm(bp.normal) - 1.0) < 1e-12
    for t in bp.tangent_frame:
        assert abs(np.sum(t * np.conj(bp.normal))) < 1e-12
    assert abs(defining_function(dom, bp.position)) < 1e-12


def test_boundary_point_builds_its_frame_on_first_use(monkeypatch):
    qr_calls = []
    qr = np.linalg.qr

    def counting_qr(a):
        qr_calls.append(a.shape)
        return qr(a)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    for spec, pos in [("egg4", [1.0, 0.0]), ("ball3", [0.6, 0.8j, 0.0])]:
        dom = make_domain(spec)
        bp = boundary_point(dom, pos)
        assert qr_calls == []
        frame = bp.tangent_frame
        assert len(qr_calls) == 1 and bp.tangent_frame is frame
        assert frame.tobytes() == domain_core._tangent_frame(bp.normal).tobytes()
        qr_calls.clear()


def test_boundary_project_models():
    ball2 = make_domain("ball2")
    bp, delta = boundary_project(ball2, [0.5, 0.0])
    assert np.allclose(bp.position, [1.0, 0.0], atol=1e-12)
    assert abs(delta - 0.5) < 1e-12

    egg4 = make_domain("egg4")
    bp, delta = boundary_project(egg4, [0.9, 0.0])
    assert np.allclose(bp.position, [1.0, 0.0], atol=1e-10)
    assert abs(delta - 0.1) < 1e-10

    disc = make_domain("disc")
    bp, delta = boundary_project(disc, [0.99])
    assert abs(bp.position[0] - 1.0) < 1e-12
    assert abs(delta - 0.01) < 1e-12


def test_boundary_project_reconstruction():
    # xi - delta * n_xi must rebuild the interior point.
    rng = np.random.default_rng(11)
    for spec in ("ball2", "egg4", "egg6", "disc"):
        dom = make_domain(spec)
        for _ in range(25):
            raw = rng.standard_normal(2 * dom.n)
            v = raw[: dom.n] + 1j * raw[dom.n :]
            z = v / minkowski_gauge(dom, v) * rng.uniform(0.1, 0.9)
            bp, delta = boundary_project(dom, z)
            assert np.linalg.norm(bp.position - delta * bp.normal - z) < 1e-9
            assert abs(delta - np.linalg.norm(z - bp.position)) < 1e-10
            assert abs(delta - boundary_distance(dom, z)) < 1e-10


def test_boundary_project_requires_interior():
    dom = make_domain("ball2")
    with pytest.raises(DomainError):
        boundary_project(dom, [1.5, 0.0])


def test_general_convex_projection_brackets_model():
    # A ball fed in as a bare callback must reproduce the model's answer.
    gen = make_domain(
        {"kind": "general_convex", "n": 2},
        rho=lambda z: np.sum(np.abs(z) ** 2, axis=-1) - 1.0,
    )
    z = np.array([0.3, 0.4j])
    bp, delta = boundary_project(gen, z)
    assert abs(delta - (1.0 - np.linalg.norm(z))) < 1e-7
    assert abs(defining_function(gen, bp.position)) < 1e-9


_GC_BALL = make_domain({"kind": "general_convex", "n": 2},
                       rho=lambda z: np.sum(np.abs(z) ** 2, axis=-1) - 1.0)


def _project_domain(spec):
    return make_domain("annulus", r=0.4) if spec == "annulus" else make_domain(spec)


def _draw_row(dom, how, data):
    """One point of dom: inside ("inside", and "centre", "tiny" for the
    balanced kinds; inside the general_convex ball means 0.3 <= |z| <=
    0.9, where its projection settles), within a few ulps of the
    boundary on either side ("near"), or not inside ("outside",
    "boundary", "nan")."""
    unit = st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-6)
    e1 = np.zeros(dom.n, dtype=complex)
    e1[0] = data.draw(st.sampled_from([1.0, -1.0, 1j, -1j]))
    if how == "boundary":
        if dom.kind == "half_plane":
            return np.array([complex(0.0, 3.0 * data.draw(unit))])
        return e1 * (data.draw(st.sampled_from([1.0, dom.r])) if dom.kind == "annulus" else 1.0)
    if how == "nan":
        return np.full(dom.n, complex(math.nan, 0.0))
    if dom.kind == "half_plane":
        y = 3.0 * data.draw(unit)
        x = {"inside": -data.draw(st.floats(1e-3, 3.0)), "outside": data.draw(st.floats(0.0, 3.0)),
             "near": data.draw(st.integers(-8, 8)) * 2.0 ** -1074}[how]
        return np.array([complex(x, y)])
    if dom.kind == "annulus":
        phase = complex(math.cos(data.draw(unit) * math.pi), math.sin(data.draw(unit) * math.pi))
        if how == "inside":
            return np.array([phase * (dom.r + (1.0 - dom.r) * data.draw(st.floats(1e-3, 0.999)))])
        if how == "near":
            edge = data.draw(st.sampled_from([1.0, dom.r]))
            return np.array([edge * (1.0 + data.draw(st.integers(-8, 8)) * 2.0 ** -52) + 0j])
        return np.array([phase * data.draw(st.sampled_from([0.0, 0.2 * dom.r, 0.99 * dom.r, 1.01, 2.0]))])
    v = np.array([complex(data.draw(unit), data.draw(unit)) for _ in range(dom.n)])
    v = v / (np.linalg.norm(v) if dom.kind == "general_convex" else minkowski_gauge(dom, v))
    if how == "inside":
        low = 0.3 if dom.kind == "general_convex" else 1e-3
        return v * data.draw(st.floats(low, 0.9 if dom.kind == "general_convex" else 0.999))
    if how == "centre":
        return 0.0 * v
    if how == "tiny":
        return v * data.draw(st.sampled_from([3e-13, 1e-15]))
    if how == "near":
        return v * (1.0 + data.draw(st.integers(-8, 8)) * 2.0 ** -52)
    return v * data.draw(st.floats(1.001, 3.0))


def _project_or_error(project, dom, z):
    try:
        bp, delta = project(dom, z)
    except (DomainError, ConvergenceError) as exc:
        return type(exc)
    return bp.position.tobytes(), bp.normal.tobytes(), delta


def _check_one_path(dom, rows):
    # Each row alone against the reference projection, then the stack.
    stack = np.array(rows)
    one = [_project_or_error(boundary_project, dom, z) for z in stack]
    for z, got in zip(stack, one):
        want = _project_or_error(boundary_project_one_point, dom, z)
        if dom.kind in ("disc", "ball") and 0.0 < np.linalg.norm(z) < 1e-12:
            # The documented move: delta is 1 - |z|, as boundary_distance had it.
            assert got[:2] == want[:2] and want[2] == 1.0 and got[2] == 1.0 - np.linalg.norm(z)
        else:
            assert got == want
        if isinstance(got, tuple):
            assert boundary_distance(dom, z) == got[2]
        else:
            with pytest.raises(got):
                boundary_distance(dom, z)
    if all(isinstance(got, tuple) for got in one):
        feet, dist = boundary_project(dom, stack[:, None, :])
        assert feet.shape == (len(rows), 1, dom.n) and dist.shape == (len(rows), 1)
        positions = np.array([np.frombuffer(got[0], dtype=complex) for got in one])
        assert feet.tobytes() == positions.tobytes()
        assert dist.tobytes() == np.array([got[2] for got in one]).tobytes()
        assert boundary_distance(dom, stack).tobytes() == dist.tobytes()
    else:
        # The interior check of every row comes first.
        error = DomainError if DomainError in one else ConvergenceError
        for fn in (boundary_project, boundary_distance):
            with pytest.raises(error):
                fn(dom, stack)
    return one


_PROJECT_SPECS = ("disc", "half_plane", "ball2", "ball3", "egg2", "egg4", "egg6",
                  {"kind": "ellipsoid", "m": [4, 6]}, "annulus")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=st.sampled_from(_PROJECT_SPECS), count=st.integers(1, 6), data=st.data())
def test_boundary_project_is_one_path(spec, count, data):
    # A stack's feet and distances are each point's projection bit for
    # bit, and boundary_distance is its delta; each point's projection is
    # the reference's.  A stack holding a row that is not inside (outside,
    # on the boundary, NaN) raises DomainError, as that row does alone.
    dom = _project_domain(spec)
    hows = ["inside", "inside", "near"] + (["centre", "tiny"] if dom.kind in ("disc", "ball", "ellipsoid")
                                           else [])
    if data.draw(st.booleans()):
        hows += ["outside", "boundary", "nan"]
    rows = [_draw_row(dom, data.draw(st.sampled_from(hows)), data) for _ in range(count)]
    one = _check_one_path(dom, rows)
    for z, got in zip(rows, one):
        if not float(defining_function(dom, z)) < 0.0:
            assert got is DomainError


@settings(max_examples=10, deadline=None, derandomize=True)
@given(count=st.integers(1, 3), data=st.data())
def test_general_convex_boundary_project_is_one_path(count, data):
    hows = ["inside"] + (["outside", "boundary", "nan"] if data.draw(st.booleans()) else [])
    rows = [_draw_row(_GC_BALL, data.draw(st.sampled_from(hows)), data) for _ in range(count)]
    _check_one_path(_GC_BALL, rows)


def test_general_convex_projection_fails_closed(monkeypatch):
    # Feet that keep alternating 1e-6 apart never settle: the projection
    # raises, for one point and for a stack, rather than return the last.
    feet = [np.array([math.cos(t), math.sin(t)], dtype=complex) for t in (0.6, 0.6 + 1e-6)]
    shots = []

    def alternating(domain, pt, direction):
        shots.append(pt)
        return feet[len(shots) % 2]

    monkeypatch.setattr(domain_core, "_shoot_to_boundary", alternating)
    z = np.array([0.3, 0.1j])
    for fn in (boundary_project, boundary_distance):
        with pytest.raises(ConvergenceError, match="boundary projection did not converge"):
            fn(_GC_BALL, z)
        with pytest.raises(ConvergenceError, match="boundary projection did not converge"):
            fn(_GC_BALL, np.array([z, z]))


def _scaled_onto_boundary(v, ex):
    """t > 0 with sum_j (v_j t)^e_j = 1 for each row v, by monotone Newton from above."""
    t = 1.0 / v.max(axis=1)
    ex = np.array(ex, dtype=float)
    for _ in range(100):
        terms = (v * t[:, None]) ** ex
        t_new = t - (terms.sum(axis=1) - 1.0) * t / (ex * terms).sum(axis=1)
        if not np.any(t_new < t):
            return t
        t = np.minimum(t, t_new)
    return t


def _scaled_onto_boundary_1(v, ex):
    """The same for one direction, in Python floats."""
    t = 1.0 / max(v)
    for _ in range(100):
        terms = [(vj * t) ** e for vj, e in zip(v, ex)]
        t_new = t - (sum(terms) - 1.0) * t / sum(e * term for e, term in zip(ex, terms))
        if not t_new < t:
            return t
        t = t_new
    return t


def _golden_min(f, lo, hi, tol=1e-13):
    r = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - r * (hi - lo), lo + r * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - r * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + r * (hi - lo)
            fd = f(d)
    return min(fc, fd)


def _oracle_distance(m, z, scan=1025):
    """Ellipsoid boundary distance by a dense scan of the moduli boundary.

    The boundary points over the positive orthant are parametrized by
    spherical angles (one for n = 2, two for n = 3).  Every local
    minimum of the scan is refined by golden-section search, nested for
    two angles, and the nearest refined distance is returned.
    """
    ex = (2,) + tuple(m)
    a = np.abs(np.asarray(z, dtype=complex))
    half = 0.5 * math.pi

    def directions(*angles):
        if len(angles) == 1:
            return np.stack([np.cos(angles[0]), np.sin(angles[0])], axis=-1)
        th, ph = angles
        return np.stack([np.cos(th), np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph)], axis=-1)

    def dists(*angles):
        angles = np.broadcast_arrays(*angles)
        v = directions(*angles).reshape(-1, len(ex))
        s = v * _scaled_onto_boundary(v, ex)[:, None]
        return np.linalg.norm(s - a, axis=1).reshape(angles[0].shape)

    def dist(*angles):
        if len(angles) == 1:
            v = (math.cos(angles[0]), math.sin(angles[0]))
        else:
            th, ph = angles
            v = (math.cos(th), math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph))
        t = _scaled_onto_boundary_1(v, ex)
        return math.sqrt(sum((vj * t - float(aj)) ** 2 for vj, aj in zip(v, a)))

    grid = np.linspace(0.0, half, scan)
    h = grid[1]
    if len(ex) == 2:
        vals = dists(grid)
        padded = np.concatenate(([np.inf], vals, [np.inf]))
        minima = np.flatnonzero((vals <= padded[:-2]) & (vals <= padded[2:]))
        return min(_golden_min(dist, max(grid[i] - h, 0.0), min(grid[i] + h, half))
                   for i in minima)
    vals = dists(grid[:, None], grid[None, :])
    padded = np.pad(vals, 1, constant_values=np.inf)
    is_min = np.ones_like(vals, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            is_min &= vals <= padded[1 + di:1 + di + scan, 1 + dj:1 + dj + scan]
    best = math.inf
    for i, j in zip(*np.nonzero(is_min)):
        def inner(th, j=j):
            return _golden_min(lambda ph: dist(th, ph),
                               max(grid[j] - h, 0.0), min(grid[j] + h, half), tol=1e-10)
        best = min(best, _golden_min(inner, max(grid[i] - h, 0.0), min(grid[i] + h, half),
                                     tol=1e-10))
    return best


def test_ellipsoid_projection_is_global():
    # The nearest boundary point, not merely a foot of a normal: the
    # shooting fixed point used to stop at a farther foot on some of the
    # monge_ampere samples (by up to 1.9e-2 relative on egg4).
    from pluripot import _suites

    egg4 = make_domain("egg4")
    rng = np.random.default_rng(_suites._DEFAULT_SEED)
    samples = _suites._interior_samples(egg4, 200, rng, gauge_lo=0.15, gauge_hi=0.6,
                                        min_axis_gap=0.3, min_tangential=0.05)
    assert min(np.linalg.norm(np.abs(z) - [0.2017, 0.1682]) for z in samples) < 1e-4
    cases = [(egg4, z) for z in samples]
    cases += [(egg4, np.array([0.9, 0.0])), (egg4, np.array([0.0, 0.5]))]
    rng = np.random.default_rng(7)
    for spec, count in (("egg6", 40), ({"kind": "ellipsoid", "m": [4, 4]}, 3)):
        dom = make_domain(spec)
        for _ in range(count):
            raw = rng.standard_normal(2 * dom.n)
            v = raw[: dom.n] + 1j * raw[dom.n :]
            cases.append((dom, v / minkowski_gauge(dom, v) * rng.uniform(0.1, 0.9)))
    for dom, z in cases:
        scan = 1025 if dom.n == 2 else 257
        oracle = _oracle_distance(dom.m, z, scan=scan)
        assert abs(boundary_distance(dom, z) - oracle) <= 1e-12 * oracle, (dom, z)


# Points of C^3 ellipsoids, among 3,000 drawn by
# _interior_samples(dom, 3000, default_rng(7), gauge_lo=0.05,
# gauge_hi=0.99), where one table seed's Newton run diverges although
# another converges to the nearest point.
_DIVERGING_SEEDS = {
    (2, 4): [[0.2814937005225652 + 0.00012155476186148759j, -0.15095959098632175 + 0.2760330790500772j,
              -0.31568448215663863 - 0.10711592371175949j]],
    (4, 4): [[0.08893654276480016 + 0.24502628538153778j, 0.1512289452225685 - 0.07562264945908104j,
              -0.0696680597861797 + 0.03588670695196502j],
             [-0.21815702697409325 + 0.3072185021721732j, 0.01466955196336418 + 0.3495670544156464j,
              -0.045404660754223274 + 0.24103578609369408j]],
    (4, 6): [[0.38564754814508545 - 0.1378997740943703j, -0.33116753280491984 - 0.27590581324780195j,
              0.28314961490082596 - 0.03390724628330549j]],
}


@pytest.mark.parametrize("m", sorted(_DIVERGING_SEEDS))
def test_ellipsoid_projection_passes_over_a_diverging_seed(m):
    dom = make_domain({"kind": "ellipsoid", "m": list(m)})
    points = np.array(_DIVERGING_SEEDS[m])
    for z in points:
        bp, delta = boundary_project(dom, z)
        assert np.linalg.norm(bp.position - delta * bp.normal - z) < 1e-9
        oracle = _oracle_distance(dom.m, z, scan=257)
        assert abs(delta - oracle) <= 1e-12 * oracle
        assert boundary_distance(dom, z) == delta
    assert boundary_distance(dom, points).tolist() == [boundary_distance(dom, z) for z in points]


def _nearest_or_error(nearest, m, a):
    try:
        return nearest(m, a).tobytes()
    except ConvergenceError as exc:
        return str(exc)


_NEWTON_SPECS = ("egg2", "egg4", "egg6", {"kind": "ellipsoid", "m": [4, 4]},
                 {"kind": "ellipsoid", "m": [2, 4]}, {"kind": "ellipsoid", "m": [4, 6]})


@settings(max_examples=90, deadline=None, derandomize=True)
@given(spec=st.sampled_from(_NEWTON_SPECS), count=st.integers(1, 6), data=st.data())
def test_array_newton_is_the_python_float_newton(spec, count, data):
    # The moduli of the nearest points, or the error, bit for bit those
    # of one Python-float Newton run per (row, seed): rows anywhere
    # inside, within a few ulps of rho = 0 on either side, and on the C^3
    # ellipsoids rows where one seed's run diverges; the stack and each
    # of its rows alone.
    dom = make_domain(spec)
    part = st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-6)
    rows = []
    for _ in range(count):
        how = data.draw(st.sampled_from(("inside", "near", "diverging")))
        if how == "diverging" and dom.m in _DIVERGING_SEEDS:
            rows.append(data.draw(st.sampled_from(_DIVERGING_SEEDS[dom.m])))
            continue
        v = np.array([complex(data.draw(part), data.draw(part)) for _ in range(dom.n)])
        scale = (1.0 + data.draw(st.integers(-8, 8)) * 2.0 ** -52 if how == "near"
                 else data.draw(st.floats(1e-3, 0.999)))
        rows.append(v / minkowski_gauge(dom, v) * scale)
    a = np.abs(np.array(rows, dtype=complex))
    for stack in [a] + [row[None] for row in a]:
        want = _nearest_or_error(ellipsoid_nearest_per_pair, dom.m, stack)
        assert _nearest_or_error(domain_core._ellipsoid_nearest, dom.m, stack) == want


@pytest.mark.parametrize("spec", ["egg4", {"kind": "ellipsoid", "m": [4, 4]}])
def test_ellipsoid_stacks_without_projected_rows(spec):
    # An empty stack, and a stack of centres only, leave the Newton no rows.
    dom = make_domain(spec)
    assert boundary_distance(dom, np.zeros((0, dom.n))).shape == (0,)
    assert boundary_distance(dom, np.zeros((3, dom.n))).tolist() == [1.0] * 3


@pytest.mark.parametrize("m", sorted(_DIVERGING_SEEDS))
def test_array_newton_stops_the_diverging_seed(m):
    # The diverging-seed rows do reach the array Newton with a seed whose
    # run does not converge, beside one that does.
    table, nbrs = domain_core._moduli_table(m)
    for z in _DIVERGING_SEEDS[m]:
        a = np.abs(np.array(z))
        d2 = np.sum((table - a) ** 2, axis=1)
        seeds = table[np.all(d2[:, None] <= d2[nbrs], axis=1)]
        _, converged = domain_core._kkt_newton((2,) + m, np.repeat(a[:, None], len(seeds), axis=1), seeds.T)
        assert converged.any() and not converged.all()


_DISTANCE_SPECS = ("disc", "ball2", "ball3", "egg2", "egg4", "egg6", {"kind": "ellipsoid", "m": [4, 6]})


def _distance_or_error(dom, z):
    try:
        return boundary_distance(dom, z)
    except (DomainError, ConvergenceError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=st.sampled_from(_DISTANCE_SPECS), count=st.integers(1, 9), data=st.data())
def test_stacked_boundary_distance_is_the_one_point_distance(spec, count, data):
    # Rows anywhere inside, at the centre, and within a few ulps of the
    # boundary, on either side of it.
    dom = make_domain(spec)
    part = st.one_of(st.just(0.0), st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-6))
    rows = []
    for _ in range(count):
        v = np.array([complex(data.draw(part), data.draw(part)) for _ in range(dom.n)])
        how = data.draw(st.sampled_from(("inside", "centre", "near")))
        if how == "centre" or not v.any():
            rows.append(np.zeros(dom.n, dtype=complex))
        elif how == "inside":
            rows.append(v / minkowski_gauge(dom, v) * data.draw(st.floats(1e-3, 0.999)))
        else:
            ulps = data.draw(st.integers(-8, 8))
            rows.append(v / minkowski_gauge(dom, v) * (1.0 + ulps * 2.0 ** -52))
    stack = np.array(rows)
    one = [_distance_or_error(dom, z) for z in stack]
    floats = [d for d in one if isinstance(d, float)]
    if len(floats) == count:
        stacked = boundary_distance(dom, stack[:, None, :])
        assert stacked.shape == (count, 1)
        assert stacked.tobytes() == np.array(one)[:, None].tobytes()
    else:
        with pytest.raises((DomainError, ConvergenceError)) as raised:
            boundary_distance(dom, stack)
        assert raised.type in one


@pytest.mark.parametrize("spec", ["annulus", "half_plane"])
def test_stacked_boundary_distance_of_the_plane_kinds_is_the_scalar_formula(spec):
    # Python's abs of the complex coordinate, which np.abs does not
    # round alike.
    dom = make_domain("annulus", r=0.3) if spec == "annulus" else make_domain(spec)
    rng = np.random.default_rng(29)
    z = rng.standard_normal((500, 1)) + 1j * rng.standard_normal((500, 1))
    if spec == "annulus":
        z = z / np.abs(z) * rng.uniform(0.3, 1.0, (500, 1))
        expected = [min(1.0 - abs(complex(c)), abs(complex(c)) - 0.3) for c in z[:, 0]]
    else:
        z.real = -np.abs(z.real)
        expected = [-c.real for c in z[:, 0]]
    assert boundary_distance(dom, z).tolist() == expected
    assert [boundary_distance(dom, c) for c in z] == expected


def test_minkowski_gauge_boundary_normalization():
    dom = make_domain("egg4")
    z = np.array([0.3, 0.5j])
    g = minkowski_gauge(dom, z)
    assert abs(defining_function(dom, z / g)) < 1e-10
    assert abs(minkowski_gauge(dom, 2.0 * z) - 2.0 * g) < 1e-10


_GAUGE_SPECS = ("disc", "ball2", "ball3", "egg2", "egg4", "egg6", {"kind": "ellipsoid", "m": [4, 6]})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=st.sampled_from(_GAUGE_SPECS), count=st.integers(1, 9), data=st.data())
def test_stacked_gauge_is_the_one_point_gauge(spec, count, data):
    # Each row of a stack, and each point alone, gets the gauge of the
    # one-point brentq reference.
    dom = make_domain(spec)
    part = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
    rows = []
    for _ in range(count):
        scale = 10.0 ** data.draw(st.floats(-4.0, 4.0))
        if data.draw(st.integers(0, 4)) == 0:
            scale = 0.0  # a zero row
        rows.append([scale * complex(data.draw(part), data.draw(part)) for _ in range(dom.n)])
    stack = np.array(rows, dtype=complex)
    want = [gauge_one_point(dom, row) for row in stack]
    one = [minkowski_gauge(dom, row) for row in stack]
    assert all(type(g) is float for g in one)
    assert np.array(one).tobytes() == np.array(want).tobytes()
    stacked = minkowski_gauge(dom, stack[:, None, :])
    assert stacked.shape == (count, 1)
    assert stacked.tobytes() == np.array(want)[:, None].tobytes()


@pytest.mark.parametrize("spec", ["disc", "ball2", "egg4", {"kind": "ellipsoid", "m": [4, 6]}])
@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.1, -math.inf)])
def test_gauge_refuses_non_finite_coordinates(spec, bad):
    dom = make_domain(spec)
    point = np.full(dom.n, 0.3 + 0.1j)
    point[-1] = bad
    stack = np.full((4, dom.n), 0.2 - 0.1j)
    stack[2] = point
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (point, stack):
            with pytest.raises(DomainError, match="finite"):
                minkowski_gauge(dom, z)


def _root_problems():
    """Gauge and ray root solves as the package makes them (through the
    module attribute domain_core.brentq, which the test swaps), plus the
    x^(d+1) = x + 1 constants behind the lattice directions."""
    rng = np.random.default_rng(11)
    problems = []
    for dom in (make_domain("egg4"), make_domain("egg6"), make_domain("ball2"),
                make_domain({"kind": "ellipsoid", "m": [4, 6]})):
        for _ in range(25):
            raw = rng.standard_normal(2 * dom.n)
            v = raw[:dom.n] + 1j * raw[dom.n:]
            pt = v / np.linalg.norm(v) * rng.uniform(0.0, 0.5)
            problems.append(lambda solve, dom=dom, v=v: gauge_one_point(dom, v))
            problems.append(lambda solve, dom=dom, pt=pt, v=v: domain_core._shoot_to_boundary(dom, pt, v))
    for d in range(2, 13):
        problems.append(lambda solve, d=d: solve(lambda x: x ** (d + 1) - x - 1.0, 1.0, 2.0, xtol=1e-15))
    return problems


def _gauge_stacks():
    """Stacks of points for the lockstep gauge, a zero row in each."""
    rng = np.random.default_rng(12)
    stacks = []
    for spec in ("egg2", "egg4", "egg6", "ball2", {"kind": "ellipsoid", "m": [4, 6]}):
        dom = make_domain(spec)
        raw = rng.standard_normal((40, 2 * dom.n)) * 10.0 ** rng.uniform(-4.0, 4.0, (40, 1))
        vs = raw[:, :dom.n] + 1j * raw[:, dom.n:]
        vs[7] = 0.0
        stacks.append((dom, vs))
    return stacks


def test_brentq_matches_reference_bitwise(monkeypatch):
    # The gauge runs its rows in lockstep, not through brentq: each row
    # of a stack, and each point alone, must still be scipy's root of
    # its excess, which the swap reaches through the one-point reference
    # gauge.
    optimize = pytest.importorskip("scipy.optimize")
    problems = _root_problems()
    stacks = _gauge_stacks()
    ours = [np.asarray(p(domain_core.brentq)) for p in problems]
    stacked = [minkowski_gauge(dom, vs) for dom, vs in stacks]
    one_point = [np.array([minkowski_gauge(dom, v) for v in vs]) for dom, vs in stacks]
    solved = []

    def reference_brentq(*args, **kwargs):
        solved.append(args)
        return optimize.brentq(*args, **kwargs)

    monkeypatch.setattr(domain_core, "brentq", reference_brentq)
    reference = [np.asarray(p(optimize.brentq)) for p in problems]
    solved.clear()
    stacked_reference = [np.array([gauge_one_point(dom, v) for v in vs]) for dom, vs in stacks]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(ours, reference))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(stacked, stacked_reference))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(one_point, stacked_reference))
    # One scipy solve per nonzero ellipsoid row.
    assert len(solved) == sum(len(vs) - 1 for dom, vs in stacks if dom.kind == "ellipsoid")


def test_brentq_raises_convergence_error(monkeypatch):
    with pytest.raises(ConvergenceError, match="same sign"):
        domain_core.brentq(lambda x: x * x + 1.0, 0.0, 1.0, xtol=1e-15)
    with pytest.raises(ConvergenceError, match="NaN"):
        domain_core.brentq(lambda x: math.sqrt(x) - 0.5 if x >= 0 else math.nan, -1.0, 1.0, xtol=1e-15)
    assert domain_core.brentq(lambda x: x ** 3 - 2.0, 0.0, 2.0, xtol=1e-15) == pytest.approx(2.0 ** (1 / 3), abs=1e-14)
    monkeypatch.setattr(domain_core, "_BRENT_MAXITER", 3)
    with pytest.raises(ConvergenceError, match="3 steps"):
        domain_core.brentq(lambda x: x ** 3 - 2.0, 0.0, 2.0, xtol=1e-15)


def test_failed_lockstep_row_is_nan_and_the_others_go_on():
    # Row 1 brackets with one sign, row 2 meets NaN: each ends as NaN,
    # where brentq raises; rows 0 and 3 are brentq's roots.
    consts = [2.0, -1.0, 0.5, 0.1]

    def f(x, rows):
        return np.array([math.nan if i == 2 and xi > 0.3 else xi ** 3 - consts[i]
                         for i, xi in zip(rows.tolist(), x.tolist())])

    roots = domain_core._brentq_rows(f, np.zeros(4), np.full(4, 2.0), xtol=1e-15)
    assert np.isnan(roots[1]) and np.isnan(roots[2])
    for i, c in ((0, 2.0), (3, 0.1)):
        assert roots[i] == domain_core.brentq(lambda x: x ** 3 - c, 0.0, 2.0, xtol=1e-15)


_FAN_SPECS = ["egg4", "egg6", "ball2", {"kind": "ellipsoid", "m": [4, 6]}]


@pytest.mark.parametrize("spec", _FAN_SPECS)
def test_fan_rays_are_the_one_ray_shots(spec):
    from pluripot.geodesics_metrics import _lattice_directions
    dom = make_domain(spec)
    rng = np.random.default_rng(31)
    raw = rng.standard_normal((8, 2 * dom.n))
    dirs = np.concatenate([_lattice_directions(dom.n, 64 * dom.n), raw[:, :dom.n] + 1j * raw[:, dom.n:]])
    for _ in range(4):
        v = rng.standard_normal(dom.n) + 1j * rng.standard_normal(dom.n)
        pt = v / minkowski_gauge(dom, v) * rng.uniform(0.0, 0.95)
        fan = domain_core._shoot_fan(dom, pt, dirs)
        alone = np.array([domain_core._shoot_to_boundary(dom, pt, d) for d in dirs])
        assert fan.tobytes() == alone.tobytes()


def test_fan_drops_a_ray_where_rho_is_nan():
    # rho is the ball's, but NaN on one lattice ray: beyond the point
    # (no bracket), or only inside the ball (the Brent run meets NaN).
    from pluripot.geodesics_metrics import _lattice_directions
    dirs = _lattice_directions(2, 128)
    k = 17
    for pt, inside_only in ((np.array([0.2, -0.1j]), False), (np.zeros(2, dtype=complex), True)):
        def rho(z, pt=pt, inside_only=inside_only):
            val = np.sum(np.abs(z) ** 2, axis=-1) - 1.0
            off = z - pt
            t = np.sum(off * np.conj(dirs[k]), axis=-1).real
            on_ray = (_row_norm(off - t[..., None] * dirs[k]) < 1e-12) & (t > 0.0)
            if inside_only:
                on_ray &= val < 0.0
            return np.where(on_ray, math.nan, val)

        dom = make_domain({"kind": "general_convex", "n": 2}, rho=rho)
        fan = domain_core._shoot_fan(dom, pt, dirs)
        assert fan.tobytes() == domain_core._shoot_fan(_GC_BALL, pt, np.delete(dirs, k, axis=0)).tobytes()


def test_general_convex_gradient_and_normal_rows_are_the_point_alone():
    egg = make_domain({"kind": "general_convex", "n": 2},
                      rho=lambda z: np.abs(z[..., 0]) ** 2 + np.abs(z[..., 1]) ** 4 - 1.0)
    rng = np.random.default_rng(5)
    for dom in (_GC_BALL, egg):
        pts = 0.5 * (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
        stacked = gradient(dom, pts)
        assert stacked.tobytes() == np.array([gradient(dom, p) for p in pts]).tobytes()
        assert gradient(dom, pts.reshape(2, 3, 2)).tobytes() == stacked.tobytes()
        normals = domain_core._unit_normals(dom, pts)
        assert normals.tobytes() == np.array([unit_normal(dom, p) for p in pts]).tobytes()
    with pytest.raises(DomainError, match="vanishing gradient"):
        unit_normal(_GC_BALL, np.zeros(2))


def test_levi_data_ball():
    dom = make_domain("ball2")
    for pos in ([1.0, 0.0], [0.6, 0.8j]):
        L, gn = levi_data(dom, boundary_point(dom, pos))
        assert L.shape == (1, 1)
        assert abs(L[0, 0] - 1.0) < 1e-7
        assert abs(gn - 2.0) < 1e-9


def test_levi_data_half_plane():
    dom = make_domain("half_plane")
    L, gn = levi_data(dom, boundary_point(dom, [0.0]))
    assert L.shape == (0, 0)
    assert abs(gn - 1.0) < 1e-12


def test_levi_data_egg_pole():
    # At (0,1) the tangent frame is spanned by e1 and the |z0|^2 term
    # contributes a unit tangential Hessian.
    dom = make_domain("egg4")
    L, gn = levi_data(dom, boundary_point(dom, [0.0, 1.0]))
    assert L.shape == (1, 1)
    assert abs(L[0, 0] - 1.0) < 1e-6
    assert abs(gn - 4.0) < 1e-9


def test_line_type_values():
    egg4 = make_domain("egg4")
    assert line_type(egg4, boundary_point(egg4, [1.0, 0.0])) == 4
    assert line_type(egg4, boundary_point(egg4, [0.0, 1.0])) == 2
    ball2 = make_domain("ball2")
    assert line_type(ball2, boundary_point(ball2, [1.0, 0.0])) == 2
    egg6 = make_domain("egg6")
    assert line_type(egg6, boundary_point(egg6, [1.0, 0.0])) == 6


def test_line_type_rotation_invariance():
    dom = make_domain("egg4")
    for theta in (0.3, 1.2, 2.9, -1.1):
        xi = boundary_point(dom, [np.exp(1j * theta), 0.0])
        assert line_type(dom, xi) == 4


def test_line_type_needs_dimension():
    disc = make_domain("disc")
    with pytest.raises(UnsupportedDomainError):
        line_type(disc, boundary_point(disc, [1.0]))


def test_unit_normal_outward():
    dom = make_domain("egg4")
    bp = boundary_point(dom, [0.0, 1.0])
    nrm = unit_normal(dom, bp.position)
    # stepping outward must increase rho
    assert defining_function(dom, bp.position + 1e-4 * nrm) > 0
    assert defining_function(dom, bp.position - 1e-4 * nrm) < 0


def test_require_interior_names_the_point():
    from pluripot.domain_core import require_interior

    ball = make_domain("ball2")
    pt = require_interior(ball, [0.1, 0.2j], "z")
    assert pt.dtype == complex and pt.shape == (2,)
    for bad in ([1.0, 0.0], [2.0, 0.0], [math.nan, 0.0]):
        with pytest.raises(DomainError, match=r"^w must lie inside the domain$"):
            require_interior(ball, bad, "w")
    with pytest.raises(DomainError, match="expected a point of C\\^2"):
        require_interior(ball, [0.1], "z")
