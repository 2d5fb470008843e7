"""Catalogued geodesics, the distance engine, and asymptoticity."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pluripot import DomainError, defining_function, domain_core, geodesics_metrics
from pluripot import (
    asymptoticity_gap,
    ball_geodesic,
    boundary_point,
    caratheodory_lower_bound,
    disc_distance,
    egg_geodesic,
    egg_invert,
    green_function,
    kobayashi_distance,
    make_domain,
    minkowski_gauge,
    poisson_kernel,
    slice_upper_bound,
)

from pluripot.domain_core import _row_norm
from pluripot.geodesics_metrics import (_N_CENTERS, _N_RAYS, _exact_distances, _inscribed_disc_radius,
                                        _lattice_support)
from pluripot.kernels import _green_rows

from oracles import (angular_derivative, ball_distance_formula, caratheodory_lower_bound_per_pair,
                     cayley_inverse, disc_distance_formula, inscribed_disc_radius, log_tanh_half,
                     poisson_geodesic, slice_upper_bound_per_centre)

_EPS = float(np.finfo(float).eps)


def _random_interior(dom, rng, lo=0.1, hi=0.8):
    raw = rng.standard_normal(2 * dom.n)
    v = raw[: dom.n] + 1j * raw[dom.n :]
    return v / minkowski_gauge(dom, v) * rng.uniform(lo, hi)


def test_egg_geodesic_axis():
    phi = egg_geodesic(4, 0.0)
    z = phi(0.3 + 0.1j)
    assert abs(z[0] - (0.3 + 0.1j)) < 1e-14
    assert abs(z[1]) < 1e-14
    assert abs(phi.normal_derivative - 1.0) < 1e-14


def test_egg_geodesic_m2_formula():
    phi = egg_geodesic(2, 1.0)
    for zeta in (0.0, 0.4, -0.3 + 0.2j):
        z = phi(zeta)
        assert abs(z[0] - (zeta + 1.0) / 2.0) < 1e-13
        assert abs(z[1] - (1.0 - zeta) / 2.0) < 1e-13
    assert abs(phi.normal_derivative - 0.5) < 1e-14


def test_egg_geodesic_kernel_value():
    # two independent kernel routes at the geodesic center
    dom = make_domain("egg4")
    xi = boundary_point(dom, [1.0, 0.0])
    phi = egg_geodesic(4, 1.0)
    closed = poisson_kernel(dom, xi, phi(0.0))
    geo = poisson_geodesic(dom, xi, phi(0.0))
    assert closed.method == "closed_form"
    closed = closed.value
    assert abs(closed - (-2.0)) < 1e-12
    assert abs(geo - (-2.0)) < 1e-12


def test_egg_geodesic_radial_limit():
    # the tangential component decays like sqrt( 1 - t ), so the ladder
    # must go to 1e-8 before the gap drops below 1e-4
    phi = egg_geodesic(4, 0.6)
    xi = phi.endpoint
    gaps = [np.linalg.norm(phi(1.0 - 10.0 ** (-j)) - xi) for j in range(1, 9)]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-4


def test_egg_geodesic_isometry():
    dom = make_domain("egg4")
    rng = np.random.default_rng(17)
    phi = egg_geodesic(4, 0.45 - 0.2j)
    for _ in range(50):
        z1 = complex(*rng.uniform(-0.6, 0.6, 2))
        z2 = complex(*rng.uniform(-0.6, 0.6, 2))
        bound = kobayashi_distance(dom, phi(z1), phi(z2))
        assert bound.exact
        assert abs(bound.value - disc_distance(z1, z2)) < 1e-10


def test_egg_invert_round_trip():
    rng = np.random.default_rng(19)
    dom = make_domain("egg4")
    for _ in range(40):
        z = _random_interior(dom, rng)
        a, zeta = egg_invert(4, z)
        assert abs(zeta) < 1.0
        assert np.linalg.norm(egg_geodesic(4, a)(zeta) - z) < 1e-9


def test_ball_geodesic_diameter():
    phi = ball_geodesic(np.zeros(2), np.array([1.0, 0.0]))
    z = phi(0.7)
    assert abs(z[0] - 0.7) < 1e-13 and abs(z[1]) < 1e-13
    assert abs(phi.normal_derivative - 1.0) < 1e-12


def test_ball_geodesic_normal_derivative():
    phi = ball_geodesic(np.array([0.5, 0.0]), np.array([1.0, 0.0]))
    assert abs(phi.normal_derivative - 1.0 / 3.0) < 1e-12
    dom = make_domain("ball2")
    xi = boundary_point(dom, [1.0, 0.0])
    assert abs(poisson_kernel(dom, xi, [0.5, 0.0]).value - (-3.0)) < 1e-12


def test_ball_geodesic_isometry():
    dom = make_domain("ball2")
    rng = np.random.default_rng(23)
    phi = ball_geodesic(np.array([0.2, 0.3j]), np.array([0.6, 0.8]))
    for _ in range(20):
        z1 = complex(*rng.uniform(-0.7, 0.7, 2))
        z2 = complex(*rng.uniform(-0.7, 0.7, 2))
        bound = kobayashi_distance(dom, phi(z1), phi(z2))
        assert bound.exact
        assert abs(bound.value - disc_distance(z1, z2)) < 1e-10


def test_normal_derivative_is_half_the_angular_derivative():
    # the normal component of the geodesic, pushed to the disc through
    # the inverse Cayley transform, has angular derivative 2 phi_N'(1)
    egg4 = make_domain("egg4")
    xi = boundary_point(egg4, [1.0, 0.0])
    for a in (0.0, 0.5, 0.3 + 0.2j, 0.9):
        phi = egg_geodesic(4, a)
        g = lambda zeta: cayley_inverse(complex(np.sum((phi(zeta) - phi.endpoint) * np.conj(xi.normal))))
        ad = angular_derivative(g, 1.0)
        assert abs(ad.real / 2.0 - phi.normal_derivative) < 1e-6


def test_ball_distance_closed_form():
    dom = make_domain("ball3")
    rng = np.random.default_rng(29)
    for _ in range(20):
        z = _random_interior(dom, rng)
        s = np.linalg.norm(z)
        bound = kobayashi_distance(dom, np.zeros(3), z)
        assert bound.exact
        assert abs(bound.value - math.log((1 + s) / (1 - s))) < 1e-12


def test_egg_distance_on_geodesic():
    dom = make_domain("egg4")
    phi = egg_geodesic(4, 1.0)
    bound = kobayashi_distance(dom, phi(0.0), phi(0.5))
    assert bound.exact
    assert abs(bound.value - math.log(3.0)) < 1e-12


def test_general_convex_sandwich_brackets_ball():
    gen = make_domain(
        {"kind": "general_convex", "n": 2},
        rho=lambda z: np.sum(np.abs(z) ** 2, axis=-1) - 1.0,
    )
    ball = make_domain("ball2")
    rng = np.random.default_rng(31)
    for _ in range(10):
        z = _random_interior(ball, rng, hi=0.7)
        w = _random_interior(ball, rng, hi=0.7)
        exact = kobayashi_distance(ball, z, w).value
        bound = kobayashi_distance(gen, z, w)
        assert not bound.exact
        assert bound.lower <= exact + 1e-9
        assert exact <= bound.upper + 1e-9


def _same_bits(got, want):
    return np.array(got).tobytes() == np.array(want).tobytes()


def test_sandwich_soundness_random_pairs():
    # Each bound is also bit for bit its centre-by-centre and
    # point-by-point reference.
    rng = np.random.default_rng(37)
    ball = make_domain("ball2")
    egg = make_domain("egg4")
    for _ in range(100):
        z = _random_interior(ball, rng)
        w = _random_interior(ball, rng)
        exact = kobayashi_distance(ball, z, w).value
        lo = caratheodory_lower_bound(ball, z, w)
        hi = slice_upper_bound(ball, z, w)
        assert lo <= exact + 1e-9
        assert exact <= hi + 1e-9
        assert _same_bits([lo, hi], [caratheodory_lower_bound_per_pair(ball, z, w),
                                     slice_upper_bound_per_centre(ball, z, w)])
    for _ in range(100):
        z = _random_interior(egg, rng)
        w = _random_interior(egg, rng)
        lo = caratheodory_lower_bound(egg, z, w)
        hi = slice_upper_bound(egg, z, w)
        assert lo <= hi + 1e-9
        assert _same_bits([lo, hi], [caratheodory_lower_bound_per_pair(egg, z, w),
                                     slice_upper_bound_per_centre(egg, z, w)])
        bound = kobayashi_distance(egg, z, w)
        if bound.exact:
            assert lo <= bound.value + 1e-9
            assert bound.value <= hi + 1e-9


def test_lattice_directions_cached_and_read_only():
    from pluripot.geodesics_metrics import _lattice_directions

    dirs = _lattice_directions(2, 128)
    assert _lattice_directions(2, 128) is dirs
    assert not dirs.flags.writeable
    assert dirs.shape == (128, 2)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-15)


_MARCH_DOMAINS = {spec: make_domain(spec) for spec in ("egg2", "egg4", "egg6", "ball2", "ball3")}
_MARCH_DOMAINS["ellipsoid[4,4]"] = make_domain({"kind": "ellipsoid", "m": [4, 4]})
_MARCH_DOMAINS["general_convex ball2"] = make_domain(
    {"kind": "general_convex", "n": 2}, rho=lambda z: np.sum(np.abs(z) ** 2, axis=-1) - 1.0)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(label=st.sampled_from(sorted(_MARCH_DOMAINS)), data=st.data())
def test_stacked_slice_march_is_the_per_centre_march(label, data):
    # Points of the unit ball lie in every one of these domains.
    dom = _MARCH_DOMAINS[label]
    z, w = _round_point(dom.n, data), _round_point(dom.n, data)
    sep = float(np.linalg.norm(w - z))
    assume(sep >= 1e-15)
    direction = (w - z) / sep
    centers = z + np.linspace(0.0, 1.0, _N_CENTERS)[:, None] * (w - z)
    want = [inscribed_disc_radius(dom, center, direction) for center in centers]
    assert _same_bits(_inscribed_disc_radius(dom, centers, direction), want)


def test_pruned_march_on_a_thin_slice_is_the_per_centre_march():
    # In the thin direction of this ellipsoid the first centre's rays
    # differ about tenfold in length, so most of them drop out early.
    dom = make_domain({"kind": "general_convex", "n": 2},
                      rho=lambda z: np.abs(z[..., 0]) ** 2 / 0.01 + np.abs(z[..., 1]) ** 2 - 1.0)
    z, w = np.array([0.08, -0.3]), np.array([-0.05, 0.5j])
    direction = (w - z) / np.linalg.norm(w - z)
    centers = z + np.linspace(0.0, 1.0, _N_CENTERS)[:, None] * (w - z)
    want = [inscribed_disc_radius(dom, center, direction) for center in centers]
    assert _same_bits(_inscribed_disc_radius(dom, centers, direction), want)
    assert _same_bits([slice_upper_bound(dom, z, w)], [slice_upper_bound_per_centre(dom, z, w)])


@pytest.mark.parametrize("direction", [np.array([1.0, 0.0]), np.array([0.6, 0.8j]),
                                       np.array([1.0, 1.0j]) / math.sqrt(2.0)])
def test_pruned_march_keeps_tied_rays(direction):
    # Through the centre of the ball every ray reaches the unit circle,
    # so the rays tie up to the rounding of |theta|, and a tied ray's
    # inside end never reaches the smallest outside end: tied rays all
    # march on together.
    ball = make_domain("ball2")
    centers = np.zeros((1, 2), dtype=complex)
    want = [inscribed_disc_radius(ball, centers[0], direction)]
    assert _same_bits(_inscribed_disc_radius(ball, centers, direction), want)


def test_pruned_march_near_the_egg6_boundary_is_the_per_centre_march(monkeypatch):
    # Pairs at gauge 0.97 rarely share a disc, so these twelve split
    # into 92 segments, each with its own march; every bound is the
    # per-centre reference's, bit for bit.  The reference costs about
    # 0.25 s a pair, hence twelve.
    egg = make_domain("egg6")
    rng = np.random.default_rng(5)
    pairs = [(_random_interior(egg, rng, 0.97, 0.97), _random_interior(egg, rng, 0.97, 0.97))
             for _ in range(12)]
    depths = []
    bound = geodesics_metrics._slice_bound

    def spy(dom, z, w, depth):
        depths.append(depth)
        return bound(dom, z, w, depth)
    monkeypatch.setattr(geodesics_metrics, "_slice_bound", spy)
    got, split = [], 0
    for z, w in pairs:
        depths.clear()
        got.append(geodesics_metrics.slice_upper_bound(egg, z, w))
        split += max(depths) > 0
    assert split == len(pairs)
    assert _same_bits(got, [slice_upper_bound_per_centre(egg, z, w) for z, w in pairs])


def test_lattice_support_cached_and_read_only():
    pts, normals = _lattice_support("ellipsoid", 2, (4,))
    assert _lattice_support("ellipsoid", 2, (4,))[0] is pts
    assert not pts.flags.writeable and not normals.flags.writeable
    assert pts.shape == normals.shape == (128, 2)
    # The stacked normals are unit_normal's of each point alone, bit for bit.
    for kind, n, m in (("disc", 1, ()), ("ball", 2, ()), ("ball", 3, ()), ("ellipsoid", 2, (2,)),
                       ("ellipsoid", 2, (4,)), ("ellipsoid", 2, (6,)), ("ellipsoid", 3, (4, 6))):
        dom = domain_core.Domain(kind=kind, n=n, m=m)
        pts, normals = _lattice_support(kind, n, m)
        alone = np.array([domain_core.unit_normal(dom, eta) for eta in pts])
        assert normals.tobytes() == alone.tobytes()


def _counted(monkeypatch, calls, module, name, check=None):
    fn = getattr(module, name)

    def counting(*args):
        calls[name] = calls.get(name, 0) + 1
        if check is not None:
            check(*args)
        return fn(*args)
    monkeypatch.setattr(module, name, counting)


def test_caratheodory_bound_projects_only_the_pair(monkeypatch):
    # The lattice support is cached; z and w are projected together, by
    # one stacked projection of two rows.
    def both(dom, pts):
        assert np.shape(pts) == (2, dom.n)

    egg = make_domain("egg4")
    caratheodory_lower_bound(egg, np.array([0.1, 0.2j]), np.array([0.3, 0.1]))
    calls = {}
    _counted(monkeypatch, calls, domain_core, "minkowski_gauge")
    _counted(monkeypatch, calls, geodesics_metrics, "minkowski_gauge")
    _counted(monkeypatch, calls, domain_core, "boundary_project", both)
    caratheodory_lower_bound(egg, np.array([0.3, 0.2j]), np.array([-0.1, 0.4]))
    assert calls == {"boundary_project": 1}


def test_one_slice_march_per_segment(monkeypatch):
    # One march: the first rho call takes every ray of every centre at
    # once, later calls only the rays that can still set a radius.
    whole = _N_CENTERS * _N_RAYS
    rows = []

    def stacked(dom, pts):
        assert pts.ndim == 2 and pts.shape[1] == dom.n
        rows.append(pts.shape[0])

    egg = make_domain("egg4")
    calls = {}
    _counted(monkeypatch, calls, geodesics_metrics, "defining_function", stacked)
    _counted(monkeypatch, calls, geodesics_metrics, "slice_upper_bound")
    geodesics_metrics.slice_upper_bound(egg, np.array([0.3, 0.2j]), np.array([-0.1, 0.4]))
    assert calls["slice_upper_bound"] == 1
    assert calls["defining_function"] <= 80
    assert rows[0] == whole
    assert max(rows) <= whole
    assert sum(rows) <= 0.25 * len(rows) * whole


def test_caratheodory_bound_cases():
    ball = make_domain("ball2")
    assert caratheodory_lower_bound(ball, np.zeros(2), np.zeros(2)) == 0.0
    # supporting point e1 gives the half-plane pair (-1, -0.1)
    lb = caratheodory_lower_bound(ball, np.zeros(2), np.array([0.9, 0.0]))
    assert lb >= math.log(10.0) - 1e-9
    assert lb <= math.log(19.0) + 1e-9
    disc = make_domain("disc")
    for t1, t2 in ((0.0, 0.5), (-0.3, 0.7)):
        lb = caratheodory_lower_bound(disc, [t1], [t2])
        assert lb <= disc_distance(t1, t2) + 1e-9


_GC_EGG4 = make_domain({"kind": "general_convex", "n": 2},
                       rho=lambda z: np.abs(z[..., 0]) ** 2 + np.abs(z[..., 1]) ** 4 - 1.0)


@pytest.mark.parametrize("spec", ["ball2", "egg4"])
def test_general_convex_support_half_spaces_contain_the_domain(spec):
    # The fan's boundary points and the feet, with their normals from
    # one gradient call: every sampled interior point lies in each
    # tangent half-space Re <x - eta, n> < 0.
    dom = make_domain(spec)
    gen = _MARCH_DOMAINS["general_convex ball2"] if spec == "ball2" else _GC_EGG4
    rng = np.random.default_rng(41)
    samples = np.array([_random_interior(dom, rng, lo=0.0, hi=0.99) for _ in range(300)])
    for _ in range(4):
        z, w = _random_interior(dom, rng, lo=0.3), _random_interior(dom, rng, lo=0.3)
        pts, normals = geodesics_metrics._supporting_points(gen, z, w)
        assert pts.shape == normals.shape == (130, 2)
        assert np.abs(defining_function(gen, pts)).max() < 1e-12
        assert np.abs(_row_norm(normals) - 1.0).max() < 1e-15
        pairing = np.sum((samples[:, None, :] - pts[None]) * np.conj(normals[None]), axis=-1)
        assert (pairing.real < 0.0).all()


def test_general_convex_ball_lower_bound_below_the_ball_distance():
    ball = make_domain("ball2")
    gen = _MARCH_DOMAINS["general_convex ball2"]
    rng = np.random.default_rng(43)
    for _ in range(20):
        z, w = _random_interior(ball, rng, lo=0.3, hi=0.95), _random_interior(ball, rng, lo=0.3, hi=0.95)
        assert 0.0 < caratheodory_lower_bound(gen, z, w) <= kobayashi_distance(ball, z, w).value


@pytest.mark.parametrize("dom", [make_domain("egg4"), _GC_EGG4], ids=["egg4", "general_convex egg4"])
def test_slice_upper_bound_refuses_exterior_and_nan_points(dom):
    # As kobayashi_distance and caratheodory_lower_bound do, at once and
    # without a warning, rather than after marching the subdivisions.
    inside = np.array([0.3, 0.2j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.array([1.2, 0.0]), np.array([math.nan, 0.1])):
            for z, w, name in ((bad, inside, "z"), (inside, bad, "w"), (bad, bad, "z")):
                with pytest.raises(DomainError, match=f"{name} must lie inside"):
                    slice_upper_bound(dom, z, w)
            with pytest.raises(DomainError):
                caratheodory_lower_bound(dom, bad, inside)


@pytest.mark.parametrize("dom", [make_domain("egg4"), _GC_EGG4], ids=["egg4", "general_convex egg4"])
def test_caratheodory_lower_bound_refuses_points_not_inside(dom):
    # Exterior, boundary and NaN points raise before any work, also as
    # the pair (z, z), whose bound is 0 for an interior z.
    inside = np.array([0.3, 0.2j])
    assert caratheodory_lower_bound(dom, inside, inside) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.array([1.2, 0.0]), np.array([1.0, 0.0]), np.array([math.nan, 0.1])):
            for z, w, name in ((bad, bad, "z"), (bad, inside, "z"), (inside, bad, "w")):
                with pytest.raises(DomainError, match=f"{name} must lie inside"):
                    caratheodory_lower_bound(dom, z, w)


def test_slice_upper_bound_cases():
    # diameter slices of the ball are totally geodesic; the numerically
    # detected slice region makes the bound accurate only to the ray
    # resolution, but it must stay a true upper bound
    ball = make_domain("ball2")
    z, w = np.array([0.3, 0.0]), np.array([-0.5, 0.0])
    exact = kobayashi_distance(ball, z, w).value
    hi = slice_upper_bound(ball, z, w)
    assert hi >= exact - 1e-12
    assert abs(hi - exact) < 1e-3
    assert slice_upper_bound(ball, z, z) == 0.0


def test_asymptoticity_gap_same_geodesic():
    phi = egg_geodesic(4, 0.5)
    for t in (1.0, 5.0, 10.0):
        assert abs(asymptoticity_gap(phi, phi, t)) < 1e-12


def test_asymptoticity_gap_decreases():
    phi = egg_geodesic(2, 0.0)
    psi = egg_geodesic(2, 1.0)
    gaps = [asymptoticity_gap(phi, psi, t) for t in (5.0, 10.0, 15.0, 20.0)]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3


def test_asymptoticity_gap_ball_diameters():
    # transverse separation shrinks like exp(-t/2) in this normalization
    xi = np.array([1.0, 0.0])
    phi = ball_geodesic(np.zeros(2), xi)
    psi = ball_geodesic(np.array([0.0, 0.4]), xi)
    gaps = [asymptoticity_gap(phi, psi, t) for t in (5.0, 10.0, 20.0)]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3


def test_asymptoticity_requires_shared_endpoint():
    phi = ball_geodesic(np.zeros(2), np.array([1.0, 0.0]))
    psi = ball_geodesic(np.zeros(2), np.array([0.0, 1.0]))
    with pytest.raises(Exception):
        asymptoticity_gap(phi, psi, 5.0)


def _bits(x):
    return np.float64(x).tobytes()


def _check_stacked_distances(dom, z, w):
    """Stacked distances and Green functions of the pairs (z, w), against
    the one-pair formula and the scalar functions, bit for bit."""
    distances = _exact_distances(dom, z, w)
    assert len(distances) == len(z)
    for zi, wi, got in zip(z, w, distances):
        if np.linalg.norm(zi - wi) < 1e-15:
            want = 0.0
        elif dom.kind == "disc":
            want = disc_distance_formula(zi[0], wi[0])
        else:
            want = ball_distance_formula(zi, wi)
        assert _bits(got) == _bits(want) == _bits(kobayashi_distance(dom, zi, wi).value)
    # log tanh(k/2) fails on a distance 0 between distinct points; the
    # stack then fails as one of its pairs does.
    try:
        wants = [green_function(dom, wi, zi).value for zi, wi in zip(z, w)]
    except ValueError:
        with pytest.raises(ValueError):
            _green_rows(dom, w, z)
    else:
        assert [_bits(g) for g in _green_rows(dom, w, z)] == [_bits(g) for g in wants]
    # One w for the whole stack, broadcast against it.
    fixed = _exact_distances(dom, z, np.broadcast_to(w[0], z.shape))
    for zi, got in zip(z, fixed):
        assert _bits(got) == _bits(kobayashi_distance(dom, zi, w[0]).value)


_UNIT = st.floats(-1.0, 1.0, allow_nan=False)


def _round_point(n, data):
    """A point of the unit disc or ball (n = 1 or n >= 2): tiny (below
    1e-14), anywhere, or near the sphere (pairs there have rho >= 0.9)."""
    raw = np.array([complex(data.draw(_UNIT), data.draw(_UNIT)) for _ in range(n)])
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        raw[0], norm = 1.0, 1.0
    size = data.draw(st.sampled_from(["tiny", "any", "near"]))
    if size == "tiny":
        radius = data.draw(st.floats(0.0, 9e-15))
    elif size == "any":
        radius = data.draw(st.floats(0.0, 0.95))
    else:
        radius = data.draw(st.floats(0.95, 0.9999))
    return raw / norm * radius


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=st.sampled_from(["disc", "ball2", "ball3"]), count=st.integers(1, 9), data=st.data())
def test_stacked_distances_match_the_one_pair_formula(spec, count, data):
    dom = make_domain(spec)
    z = np.array([_round_point(dom.n, data) for _ in range(count)])
    w = np.array([z[i] if data.draw(st.booleans()) and i % 3 == 0 else _round_point(dom.n, data)
                  for i in range(count)])
    _check_stacked_distances(dom, z, w)


@pytest.mark.parametrize("spec", ["disc", "ball2", "ball3"])
def test_stacked_distances_take_every_branch(spec):
    dom = make_domain(spec)
    e = np.zeros(dom.n, dtype=complex)
    e[0] = 1.0
    f = np.zeros(dom.n, dtype=complex)
    f[-1] = 1.0j
    pairs = [
        (0.4 * e + 0.3 * f, 3e-15 * f),   # |w| < 1e-14
        (2e-15 * e, 0.5 * f),             # |z| < 1e-14
        (0.99 * e, -0.98 * f),            # rho >= 0.9
        (0.3 * f, 0.3 * f),               # the pole
        (0.3 * f, 0.3 * f + 5e-16 * e),   # closer than 1e-15
        (0.2 * e, 0.1 * f),
    ]
    z, w = (np.array(side) for side in zip(*pairs))
    assert [float(np.linalg.norm(x)) < 1e-14 for x in w] == [True] + [False] * 5
    assert [float(np.linalg.norm(x)) < 1e-14 for x in z] == [False, True] + [False] * 4
    assert disc_distance(0.0, 0.9) < _exact_distances(dom, z, w)[2]
    _check_stacked_distances(dom, z, w)


@pytest.mark.parametrize("spec", ["disc", "ball3"])
def test_large_stacked_distances_match_the_one_pair_formula(spec):
    # Stacks past numpy's 256 KiB threshold for computing in place on
    # temporaries, where its complex product rounds differently.
    dom = make_domain(spec)
    rng = np.random.default_rng(12)
    z, w = (np.array([_random_interior(dom, rng, 0.0, 0.99) for _ in range(12000)])
            for _ in range(2))
    got = np.array(_exact_distances(dom, z, w))
    if dom.kind == "disc":
        want = [disc_distance_formula(a[0], b[0]) for a, b in zip(z, w)]
    else:
        want = [ball_distance_formula(a, b) for a, b in zip(z, w)]
    assert got.tobytes() == np.array(want).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spec=st.sampled_from(["ball2", "ball3"]), data=st.data())
def test_ball_distance_on_the_axis_is_the_disc_distance(spec, data):
    # On the z0 axis the ball's distance is the disc's, also for pairs
    # of distinct points near the origin, where the Moebius map is not
    # taken.
    ball, disc = make_domain(spec), make_domain("disc")
    a, b = _round_point(1, data)[0], _round_point(1, data)[0]
    z = np.zeros(ball.n, dtype=complex)
    w = np.zeros(ball.n, dtype=complex)
    z[0], w[0] = a, b
    want = kobayashi_distance(disc, a, b).value
    for got in (kobayashi_distance(ball, z, w).value, _exact_distances(ball, z[None], w[None])[0]):
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("spec", ["ball2", "ball3"])
def test_ball_distance_between_distinct_points_near_the_origin(spec):
    dom = make_domain(spec)
    e = np.zeros(dom.n, dtype=complex)
    e[0] = 1.0
    f = np.zeros(dom.n, dtype=complex)
    f[-1] = 1.0j
    for z, w in [(0 * e, 4.3e-15 * e), (3e-15 * e, -5e-15 * f), (2e-15 * f, 0.4 * e)]:
        want = disc_distance(0.0, float(np.linalg.norm(z - w)))
        assert abs(kobayashi_distance(dom, z, w).value - want) <= 1e-12 * want
        green = green_function(dom, w, z)
        want_green = log_tanh_half(kobayashi_distance(dom, z, w).value)
        assert abs(green.value - want_green) <= 4 * _EPS * abs(want_green)
        assert green.value > -40.0


@pytest.mark.parametrize("phi", [egg_geodesic(4, 0.5), egg_geodesic(6, 0.25j), egg_geodesic(2, 0.0),
                                 ball_geodesic(np.array([0.2, 0.3j]), np.array([1.0, 0.0])),
                                 ball_geodesic(np.array([0.1, 0.0, -0.4]), np.array([0.0, 0.6, 0.8j]))])
def test_geodesic_derivative_is_the_difference_quotient(phi):
    # The closed-form phi' against the central difference of phi, whose
    # error is O(h^2) + O(eps / h); on a stack and at one point alike.
    zetas = np.array([0.0, 0.3, -0.2 + 0.4j, 0.7j, -0.65])
    h = 1e-5
    numeric = (phi(zetas + h) - phi(zetas - h)) / (2.0 * h)
    exact = phi.derivative(zetas)
    assert exact.shape == numeric.shape
    assert np.max(np.abs(exact - numeric)) < 1e-8
    assert np.array_equal(phi.derivative(zetas[2]), exact[2])


# ---------------------------------------------------------------------------
# Properties of the distance: symmetry, the triangle inequality,
# invariance under automorphisms, and lower <= upper off the catalogue.
# ---------------------------------------------------------------------------

_PROPERTY_DOMAINS = {spec: make_domain(spec) for spec in ("disc", "ball2", "ball3", "egg4")}


def _gauged_point(dom, data, hi, axis=False):
    """A point of dom at gauge at most hi, on the z0 axis when axis is
    set; a drawn point of gauge below 1e-3 is kept as it is."""
    v = np.zeros(dom.n, dtype=complex)
    for j in range(1 if axis else dom.n):
        v[j] = complex(data.draw(_UNIT), data.draw(_UNIT))
    gauge = minkowski_gauge(dom, v)
    return v if gauge < 1e-3 else v / gauge * data.draw(st.floats(0.0, hi))


def _exact_distance(dom, z, w):
    bound = kobayashi_distance(dom, z, w)
    assert bound.exact
    return bound.value


@settings(max_examples=200, deadline=None, derandomize=True)
@given(label=st.sampled_from(sorted(_PROPERTY_DOMAINS)), data=st.data())
def test_exact_distances_are_symmetric_and_satisfy_the_triangle_inequality(label, data):
    # An egg4 pair is exact when one point lies on the z0 axis, so two of
    # the three points do there.
    dom = _PROPERTY_DOMAINS[label]
    axis = label == "egg4"
    pts = [_gauged_point(dom, data, 0.95, axis), _gauged_point(dom, data, 0.95, axis),
           _gauged_point(dom, data, 0.95)]
    d = {(i, j): _exact_distance(dom, pts[i], pts[j]) for i in range(3) for j in range(3) if i != j}
    for (i, j), dij in d.items():
        assert abs(dij - d[j, i]) <= 1e-12 * dij
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        assert d[i, k] <= (d[i, j] + d[j, k]) * (1.0 + 1e-12)


def _ball_automorphism(a, z):
    """The ball automorphism exchanging a and 0, at z (a, z of shape (n,))."""
    aa = float(np.vdot(a, a).real)
    za = complex(np.vdot(a, z))
    if aa == 0.0:
        return -z
    pz = za / aa * a
    return (a - pz - math.sqrt(1.0 - aa) * (z - pz)) / (1.0 - za)


def _unitary(n, data):
    """A unitary n x n matrix: the Q of a drawn complex matrix."""
    raw = np.array([[complex(data.draw(_UNIT), data.draw(_UNIT)) for _ in range(n)] for _ in range(n)])
    assume(abs(np.linalg.det(raw)) > 1e-3)
    return np.linalg.qr(raw)[0]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(label=st.sampled_from(["ball2", "ball3"]), data=st.data())
def test_ball_distance_is_invariant_under_automorphisms(label, data):
    dom = _PROPERTY_DOMAINS[label]
    z, w, a = (_gauged_point(dom, data, 0.7) for _ in range(3))
    u = _unitary(dom.n, data)
    image = lambda p: u @ _ball_automorphism(a, p)
    before = _exact_distance(dom, z, w)
    assert abs(_exact_distance(dom, image(z), image(w)) - before) <= 1e-10 * max(before, 1.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_egg_axis_distance_is_invariant_under_egg_automorphisms(data):
    # _egg_automorphism keeps the z0 axis, so the image pair is again on
    # the axis route; rotating each coordinate is an automorphism too.
    from pluripot.geodesics_metrics import _egg_automorphism

    dom = _PROPERTY_DOMAINS["egg4"]
    p, z = _gauged_point(dom, data, 0.7, axis=True), _gauged_point(dom, data, 0.7)
    alpha = _gauged_point(make_domain("disc"), data, 0.7)[0]
    turn = np.exp(1j * np.array([data.draw(st.floats(0.0, 2.0 * math.pi)) for _ in range(2)]))
    image = lambda q: turn * _egg_automorphism(dom, alpha, q)
    before = _exact_distance(dom, p, z)
    assert abs(_exact_distance(dom, image(p), image(z)) - before) <= 1e-10 * max(before, 1.0)
    assert abs(_exact_distance(dom, image(z), image(p)) - before) <= 1e-10 * max(before, 1.0)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_egg_sandwich_lower_bound_is_below_its_upper_bound(data):
    dom = _PROPERTY_DOMAINS["egg4"]
    z, w = _gauged_point(dom, data, 0.8), _gauged_point(dom, data, 0.8)
    assume(min(abs(z[1]), abs(w[1])) > 1e-3)
    bound = kobayashi_distance(dom, z, w)
    assume(not bound.exact)
    assert caratheodory_lower_bound(dom, z, w) <= slice_upper_bound(dom, z, w)
    assert bound.lower <= bound.upper
