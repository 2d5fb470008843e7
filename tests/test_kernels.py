"""Green function, Poisson kernel, horofunctions, horospheres."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pluripot import (
    GREEN_POLE,
    ClosedFormKernel,
    ConvergenceError,
    DomainError,
    PluripotError,
    UnsupportedDomainError,
    boundary_distance_asymptotic,
    boundary_point,
    defining_function,
    disc_distance,
    egg_geodesic,
    gamma_lambda,
    green_function,
    green_normal_derivative,
    horofunction,
    horosphere_contains,
    k_region_contains,
    make_domain,
    minkowski_gauge,
    poisson_kernel,
)
from pluripot import _jets, kernels
from pluripot.kernels import _closed_form, _log_tanh_half

from oracles import (axis_kernel_mp, egg_distance_one_pair, horofunction_one_point, log_tanh_half,
                     poisson_disc, poisson_geodesic, poisson_halfplane)


def _random_interior(dom, rng, lo=0.1, hi=0.8):
    raw = rng.standard_normal(2 * dom.n)
    v = raw[: dom.n] + 1j * raw[dom.n :]
    return v / minkowski_gauge(dom, v) * rng.uniform(lo, hi)


def test_green_function_ball_origin():
    dom = make_domain("ball2")
    kv = green_function(dom, np.zeros(2), np.array([0.5, 0.0]))
    assert abs(kv.value - math.log(0.5)) < 1e-12
    # G_0 = log ||z||
    rng = np.random.default_rng(41)
    for _ in range(10):
        z = _random_interior(dom, rng)
        kv = green_function(dom, np.zeros(2), z)
        assert abs(kv.value - math.log(np.linalg.norm(z))) < 1e-12


def test_green_function_pole_sentinel():
    dom = make_domain("ball2")
    z = np.array([0.3, 0.1j])
    assert green_function(dom, z, z).value == GREEN_POLE


def _green_pair_points(dom, rng, i):
    """The i-th pair (z, w) of test_green_rows_are_their_pairs_bit_for_bit:
    on egg4 z on the z0 axis, w on it, or neither, in turn; every fifth
    pair one point twice."""
    if dom.kind == "half_plane":
        z, w = (np.array([complex(-rng.uniform(0.05, 2.0), rng.uniform(-1.0, 1.0))]) for _ in range(2))
    else:
        z, w = _random_interior(dom, rng), _random_interior(dom, rng)
    if dom.kind == "ellipsoid" and i % 3 == 0:
        z[1:] = 0.0
    if dom.kind == "ellipsoid" and i % 3 == 1:
        w[1:] = 0.0
    return z, (z.copy() if i % 5 == 4 else w)


@pytest.mark.parametrize("name", ["ball2", "disc", "half_plane", "egg4"])
@pytest.mark.parametrize("count", [1, 3, 37])
def test_green_rows_are_their_pairs_bit_for_bit(name, count):
    # The stacked Green route gives each row log tanh(k/2) of its pair's
    # own exact kobayashi_distance k, bit for bit; GREEN_POLE where the
    # pair is one point twice, and None where the pair is sandwiched.
    from pluripot.geodesics_metrics import kobayashi_distance

    dom = make_domain(name)
    rng = np.random.default_rng(count)
    z, w = map(np.array, zip(*(_green_pair_points(dom, rng, i) for i in range(count))))
    rows = kernels._green_rows(dom, w, z)
    assert len(rows) == count
    sandwiched = 0
    for zi, wi, got in zip(z, w, rows):
        if np.array_equal(zi, wi):
            assert got == GREEN_POLE
            continue
        bound = kobayashi_distance(dom, zi, wi)
        if bound.exact:
            assert got.hex() == _log_tanh_half(bound.value).hex()
        else:
            assert got is None
            sandwiched += 1
    # On egg4 the pairs of two points off the axis.
    assert sandwiched == (sum(i % 3 == 2 and i % 5 != 4 for i in range(count)) if name == "egg4" else 0)


def test_green_function_symmetry():
    dom = make_domain("ball2")
    rng = np.random.default_rng(43)
    for _ in range(50):
        z = _random_interior(dom, rng)
        w = _random_interior(dom, rng)
        if np.linalg.norm(z - w) < 1e-6:
            continue
        gzw = green_function(dom, w, z).value
        gwz = green_function(dom, z, w).value
        assert abs(gzw - gwz) < 1e-10


def test_poisson_kernel_closed_forms():
    ball2 = make_domain("ball2")
    xi = boundary_point(ball2, [1.0, 0.0])
    kv = poisson_kernel(ball2, xi, np.zeros(2))
    assert kv.method == "closed_form"
    assert kv.uncertainty == 0.0
    assert abs(kv.value - (-1.0)) < 1e-14

    disc = make_domain("disc")
    kv = poisson_kernel(disc, boundary_point(disc, [1.0]), [0.5])
    assert abs(kv.value - (-3.0)) < 1e-14

    hp = make_domain("half_plane")
    kv = poisson_kernel(hp, boundary_point(hp, [0.0]), [-1.0])
    assert abs(kv.value - (-2.0)) < 1e-14


def test_poisson_kernel_egg_on_geodesics():
    egg = make_domain("egg4")
    xi = boundary_point(egg, [1.0, 0.0])
    for a in (0.0, 0.5, 0.8j, 1.0):
        z = egg_geodesic(4, a)(0.0)
        kv = poisson_kernel(egg, xi, z)
        assert abs(kv.value - (-(1.0 + abs(a) ** 4))) < 1e-12


def test_poisson_kernel_methods_agree():
    egg = make_domain("egg4")
    xi = boundary_point(egg, [1.0, 0.0])
    rng = np.random.default_rng(47)
    for _ in range(20):
        z = _random_interior(egg, rng)
        closed = ClosedFormKernel(egg, xi, 1.0)(z)
        geo = poisson_geodesic(egg, xi, z)
        assert abs(closed - geo) < 1e-8 * (1.0 + abs(closed))


def test_poisson_kernel_rotated_pole():
    egg = make_domain("egg4")
    rot = np.exp(0.7j)
    xi = boundary_point(egg, [rot, 0.0])
    z = np.array([0.2, 0.3j])
    expected = poisson_kernel(egg, boundary_point(egg, [1.0, 0.0]), z * np.array([np.conj(rot), 1.0])).value
    assert abs(poisson_kernel(egg, xi, z).value - expected) < 1e-12


def test_poisson_geodesic_restriction():
    # Omega(phi(zeta)) * phi_N'(1) is the disc kernel at zeta
    egg = make_domain("egg4")
    xi = boundary_point(egg, [1.0, 0.0])
    rng = np.random.default_rng(53)
    for a in (0.3, 0.6j):
        phi = egg_geodesic(4, a)
        for _ in range(10):
            zeta = complex(*rng.uniform(-0.6, 0.6, 2))
            lhs = poisson_kernel(egg, xi, phi(zeta)).value * phi.normal_derivative
            assert abs(lhs - poisson_disc(zeta, 1.0)) < 1e-8


def test_poisson_kernel_halfplane_comparison():
    # Omega_xi(z) / Omega_0^H(<z - xi, n>) -> 1 along the normal ladder
    for spec in ("ball2", "egg4"):
        dom = make_domain(spec)
        e1 = np.zeros(dom.n, dtype=complex)
        e1[0] = 1.0
        xi = boundary_point(dom, e1)
        ratios = []
        for j in range(2, 8):
            z = xi.position - 10.0 ** (-j) * xi.normal
            w = complex(np.sum((z - xi.position) * np.conj(xi.normal)))
            ratios.append(poisson_kernel(dom, xi, z).value / poisson_halfplane(w))
        assert abs(ratios[-1] - 1.0) < 1e-6


def test_horofunction_basics():
    dom = make_domain("ball2")
    xi = boundary_point(dom, [1.0, 0.0])
    p = np.zeros(2)
    assert abs(horofunction(dom, xi, p, p).value) < 1e-14
    kv = horofunction(dom, xi, p, np.array([0.5, 0.0]))
    assert abs(kv.value - (-math.log(3.0))) < 1e-12


def test_horofunction_ladder_matches_closed_form():
    dom = make_domain("egg4")
    xi = boundary_point(dom, [1.0, 0.0])
    p = np.array([0.1, 0.2j])
    z = np.array([-0.3, 0.25])
    closed = horofunction(dom, xi, p, z)
    ladder = kernels._horofunction_rows(dom, xi, [p], [z], "ladder")[0]
    assert closed.method == "closed_form"
    assert ladder.method == "limit_ladder"
    assert abs(closed.value - ladder.value) < 1e-5


def _ladder_point(dom, data, kind):
    """An interior point off the z0 axis, on it, or (on an egg) on a
    catalogued geodesic so near the axis disc that its pairs with the
    axis rungs take the common-geodesic route."""
    angle = data.draw(st.floats(0.0, 2.0 * math.pi))
    radius = data.draw(st.floats(0.05, 0.85))
    if kind == "axis":
        pt = np.zeros(dom.n, dtype=complex)
        pt[0] = radius * complex(math.cos(angle), math.sin(angle))
        return pt
    if kind == "geodesic" and dom.kind == "ellipsoid" and dom.n == 2:
        a = 10.0 ** data.draw(st.floats(-12.9, -11.5)) * complex(math.cos(angle), math.sin(angle))
        return egg_geodesic(dom.m[0], a)(radius * (2.0 * data.draw(st.floats(0.0, 1.0)) - 1.0))
    parts = st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-3)
    v = np.array([complex(data.draw(parts), data.draw(parts)) for _ in range(dom.n)])
    return v / minkowski_gauge(dom, v) * radius


@pytest.mark.parametrize("spec", ["disc", "ball2", "ball3", "egg2", "egg4", "egg6"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_stacked_ladder_matches_the_per_rung_distances(spec, data):
    # The ladder takes the exact distances of all rungs in one stacked
    # call, bit for bit the per-rung kobayashi_distance ladder, at axis
    # boundary points of any phase; on the eggs, every distance is also
    # the one-pair oracle's.
    from pluripot._extrap import extrapolate, normal_ladder
    from pluripot.geodesics_metrics import kobayashi_distance

    dom = make_domain(spec)
    phase = data.draw(st.sampled_from((1.0, 1j, 0.6 - 0.8j)))
    xi = boundary_point(dom, phase * np.eye(dom.n)[0])
    kinds = st.sampled_from(("off", "axis", "geodesic"))
    p, z = _ladder_point(dom, data, data.draw(kinds)), _ladder_point(dom, data, data.draw(kinds))
    vals = []
    for w in normal_ladder(dom, xi, range(1, 9)):
        kz, kp = kobayashi_distance(dom, z, w).value, kobayashi_distance(dom, w, p).value
        if dom.kind == "ellipsoid":
            assert (kz, kp) == (egg_distance_one_pair(dom, z, w), egg_distance_one_pair(dom, w, p))
        vals.append(kz - kp)
    try:
        est, unc = extrapolate(vals, "horofunction")
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            kernels._horofunction_rows(dom, xi, [p], [z], "ladder")
        return
    [got] = kernels._horofunction_rows(dom, xi, [p], [z], "ladder")
    assert (got.value, got.uncertainty) == (float(est), float(unc))


def test_stacked_egg_distances_take_each_route_of_the_pair_alone():
    # One stack reaches every route: a common catalogued geodesic near
    # the axis disc, both points on the axis, one on it (through the
    # automorphism and the gauge), and none.
    from pluripot.geodesics_metrics import _egg_automorphism, _egg_distance_exact, egg_invert

    dom = make_domain("egg4")
    near = egg_geodesic(4, 1e-12j)(0.4)
    z = np.array([near, [0.3, 0.0], [0.1, 0.2j], [0.1, 0.2j]])
    w = np.array([[0.3, 0.0], [-0.2j, 0.0], [-0.2j, 0.0], [0.3, -0.1]])
    mu = minkowski_gauge(dom, _egg_automorphism(dom, -0.2j, z[2]))
    expected = [disc_distance(egg_invert(4, near)[1], 0.3), disc_distance(0.3, -0.2j),
                math.log1p(mu) - math.log1p(-mu), None]
    assert expected == [egg_distance_one_pair(dom, a, b) for a, b in zip(z, w)]
    assert _egg_distance_exact(dom, z, w) == expected
    assert [_egg_distance_exact(dom, a[None], b[None])[0] for a, b in zip(z, w)] == expected


def test_closed_form_kernel_stacks_refuse_what_the_point_refuses():
    # rho of this egg4 point is 0.0, alone and on a stack (numpy's **
    # once made it negative on a stack): a stack holding it is refused
    # as the point alone is.
    dom = make_domain("egg4")
    u = ClosedFormKernel(dom, [1.0, 0.0], 1.0)
    z = np.array([0.1381236389496036 + 0.29456360582617236j, 0.9569301292608001 - 0.17286401843966967j])
    assert defining_function(dom, z[None])[0] == 0.0 == float(defining_function(dom, z))
    for pts in (z, z[None], np.array([[0.1, 0.2], z]), np.array([[z]])):
        with pytest.raises(DomainError, match="inside"):
            u.many(pts)
    with pytest.raises(DomainError, match="inside"):
        u(z)
    assert u.many(np.array([[0.1, 0.2], [0.3, 0.1j]])).tolist() == [u([0.1, 0.2]), u([0.3, 0.1j])]


def test_horofunction_cocycle():
    dom = make_domain("ball2")
    xi = boundary_point(dom, [0.6, 0.8])
    rng = np.random.default_rng(59)
    for _ in range(10):
        p = _random_interior(dom, rng)
        q = _random_interior(dom, rng)
        z = _random_interior(dom, rng)
        lhs = horofunction(dom, xi, p, z).value
        rhs = horofunction(dom, xi, q, z).value + horofunction(dom, xi, p, q).value
        assert abs(lhs - rhs) < 1e-8


def test_green_normal_derivative_values():
    ball2 = make_domain("ball2")
    xi = boundary_point(ball2, [1.0, 0.0])
    kv = green_normal_derivative(ball2, xi, np.zeros(2))
    assert abs(kv.value - 1.0) < 1e-6

    egg = make_domain("egg4")
    xi = boundary_point(egg, [1.0, 0.0])
    kv = green_normal_derivative(egg, xi, egg_geodesic(4, 1.0)(0.0))
    assert abs(kv.value - 2.0) < 1e-6


def test_green_normal_derivative_gives_horofunction():
    # h_{xi,w}(z) = log dG_w - log dG_z
    dom = make_domain("ball2")
    xi = boundary_point(dom, [1.0, 0.0])
    w = np.array([0.2, 0.1])
    z = np.array([-0.1, 0.3j])
    dw = green_normal_derivative(dom, xi, w).value
    dz = green_normal_derivative(dom, xi, z).value
    h = horofunction(dom, xi, w, z).value
    assert abs(h - (math.log(dw) - math.log(dz))) < 1e-4


def test_horosphere_membership():
    dom = make_domain("ball2")
    xi = boundary_point(dom, [1.0, 0.0])
    p = np.zeros(2)
    assert horosphere_contains(dom, xi, p, 2.0, p) is True
    # ball horosphere E_0(e1, 1) = {|1-z1|^2 < 1 - ||z||^2}
    assert horosphere_contains(dom, xi, p, 1.0, np.array([0.5, 0.0])) is True
    assert horosphere_contains(dom, xi, p, 0.25, np.array([0.5, 0.0])) is False


def test_horosphere_touches_boundary_only_at_pole():
    # points of E_0(e1, 1) in a thin boundary shell cluster at e1
    dom = make_domain("ball2")
    xi = boundary_point(dom, [1.0, 0.0])
    p = np.zeros(2)
    # tangential reach of the horosphere at depth delta is about
    # sqrt(2) (2 delta)^(1/4), so this shell keeps members within 0.1
    delta = 1e-5
    found = 0
    for theta in np.linspace(0.0, math.pi, 200):
        z = (1.0 - delta) * np.array([math.cos(theta), math.sin(theta)])
        if horosphere_contains(dom, xi, p, 1.0, z):
            found += 1
            assert np.linalg.norm(z - xi.position) < 0.1
    assert found > 0


def test_k_region_membership():
    dom = make_domain("ball2")
    xi = boundary_point(dom, [1.0, 0.0])
    p = np.zeros(2)
    assert k_region_contains(dom, xi, p, 2.0, p) is True
    # far-side points exit every moderate approach region
    assert k_region_contains(dom, xi, p, 1.5, np.array([-0.9, 0.0])) is False


def test_boundary_distance_asymptotic():
    ball2 = make_domain("ball2")
    xi = boundary_point(ball2, [1.0, 0.0])
    approach = [xi.position - 10.0 ** (-j) * xi.normal for j in range(1, 8)]
    kv = boundary_distance_asymptotic(ball2, xi, np.zeros(2), approach)
    assert abs(kv.value - math.log(2.0)) < 1e-6

    egg = make_domain("egg4")
    xi = boundary_point(egg, [1.0, 0.0])
    p = egg_geodesic(4, 1.0)(0.0)
    approach = [xi.position - 10.0 ** (-j) * xi.normal for j in range(1, 8)]
    kv = boundary_distance_asymptotic(egg, xi, p, approach)
    assert abs(kv.value - 0.0) < 1e-6


def test_boundary_distance_asymptotic_slanted():
    # slanted approaches share the normal limit
    dom = make_domain("ball2")
    xi = boundary_point(dom, [1.0, 0.0])
    tau = xi.tangent_frame[0]
    approach = [
        xi.position - d * xi.normal + (d ** 0.6) * 0.2 * tau
        for d in (10.0 ** (-j) for j in range(2, 9))
    ]
    kv = boundary_distance_asymptotic(dom, xi, np.zeros(2), approach)
    assert abs(kv.value - math.log(2.0)) < 1e-3


def test_poisson_vanishes_at_other_boundary_points():
    egg = make_domain("egg4")
    xi = boundary_point(egg, [1.0, 0.0])
    for eta_pos in ([np.exp(0.5j), 0.0], [0.0, 1.0], [0.0, 1j]):
        eta = boundary_point(egg, eta_pos)
        vals = [
            abs(poisson_kernel(egg, xi, eta.position - 10.0 ** (-j) * eta.normal).value)
            for j in range(2, 7)
        ]
        assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3


def test_poisson_curve_limit():
    # Omega(phi(t)) (1 - t) -> -2 / phi_N'(1) on catalogued geodesics
    egg = make_domain("egg4")
    xi = boundary_point(egg, [1.0, 0.0])
    for a in (0.0, 0.5, 0.3 + 0.4j):
        phi = egg_geodesic(4, a)
        t = 1.0 - 1e-6
        got = poisson_kernel(egg, xi, phi(t)).value * (1.0 - t)
        assert abs(got - (-2.0 / phi.normal_derivative)) < 1e-3


def test_pole_continuity_modulus():
    # record a local continuity modulus near the pole axis; no blowup
    egg = make_domain("egg4")
    xi = boundary_point(egg, [1.0, 0.0])
    xi2 = boundary_point(egg, [np.exp(1e-4j), 0.0])
    z = np.array([0.2, 0.3])
    z2 = z + 1e-4
    v = poisson_kernel(egg, xi, z).value
    v2 = poisson_kernel(egg, xi2, z2).value
    assert abs(v2 - v) < 1.0  # crude Lipschitz-type bound at interior scale


def test_kernel_value_contract():
    from pluripot import KernelValue

    for method in ("closed_form", "green_derivative"):
        with pytest.raises(ConvergenceError):
            KernelValue(1.0, method, 0.5)


# ---------------------------------------------------------------------------
# The stacked closed form against the scalar formulas, bit for bit.
# ---------------------------------------------------------------------------

_CLOSED_FORM_DOMAINS = ("disc", "half_plane", "ball2", "ball3", "egg4", "egg6",
                        {"kind": "ellipsoid", "m": [4, 4]})
_UNIT = st.floats(-1.0, 1.0, allow_nan=False)


def _closed_form_oracle(dom, xi, z):
    """Omega_xi(z) from the scalar formulas, one Python operation at a time."""
    pos = xi.position
    if dom.kind == "disc":
        zeta, x = complex(z[0]), complex(pos[0])
        return -(1.0 - abs(zeta) ** 2) / abs(x - zeta) ** 2
    if dom.kind == "half_plane":
        return 2.0 * (1.0 / complex(z[0] - pos[0])).real
    if dom.kind == "ball":
        num = 1.0 - float(np.linalg.norm(z)) ** 2
        return -num / abs(1.0 - complex(np.sum(z * np.conj(pos)))) ** 2
    z0 = complex(z[0]) * np.conj(pos[0] / abs(pos[0]))
    acc = 1.0 - abs(z0) ** 2
    for j, mj in enumerate(dom.m):
        acc -= abs(complex(z[j + 1])) ** mj
    return -acc / abs(1.0 - z0) ** 2


def _draw_boundary(dom, data):
    if dom.kind == "half_plane":
        return np.array([1j * data.draw(st.floats(-5.0, 5.0))])
    if dom.kind == "ball":
        v = np.array([complex(data.draw(_UNIT), data.draw(_UNIT)) for _ in range(dom.n)])
        norm = float(np.linalg.norm(v))
        return v / norm if norm > 1e-3 else np.eye(dom.n)[0].astype(complex)
    # Disc and eggs: a point of the unit circle in the z0 axis.
    pos = np.zeros(dom.n, dtype=complex)
    pos[0] = np.exp(1j * data.draw(st.floats(0.0, 2.0 * math.pi)))
    return pos


def _draw_interior(dom, data):
    if dom.kind == "half_plane":
        return np.array([complex(data.draw(st.floats(-5.0, -1e-3)), data.draw(st.floats(-5.0, 5.0)))])
    v = np.array([complex(data.draw(_UNIT), data.draw(_UNIT)) for _ in range(dom.n)])
    if float(np.max(np.abs(v))) < 1e-3:
        v[0] = 0.5
    z = v / minkowski_gauge(dom, v) * data.draw(st.floats(0.01, 0.99))
    assert float(defining_function(dom, z)) < 0.0
    return z


def _bits(x):
    return np.float64(x).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=st.sampled_from(_CLOSED_FORM_DOMAINS), count=st.integers(1, 9), data=st.data())
def test_poisson_closed_on_stacks_matches_scalar_formulas(spec, count, data):
    dom = make_domain(spec)
    xi = boundary_point(dom, _draw_boundary(dom, data))
    pts = np.array([_draw_interior(dom, data) for _ in range(count)])
    stacked = _closed_form(dom, xi)(pts)
    by_kernel = ClosedFormKernel(dom, xi, 1.0).many(pts)
    assert stacked.shape == (count,)
    for z, got, again in zip(pts, stacked, by_kernel):
        want = _closed_form_oracle(dom, xi, z)
        assert want < 0.0
        assert _bits(got) == _bits(want) == _bits(again)
        assert _bits(_closed_form(dom, xi)(z)) == _bits(want)
        kv = poisson_kernel(dom, xi, z)
        assert kv.method == "closed_form" and _bits(kv.value) == _bits(want)
    # Any stack shape (..., n) gives the same values.
    assert np.array_equal(_closed_form(dom, xi)(pts[:, None, :])[:, 0], stacked)


def test_closed_form_kernel_refuses_points_outside():
    egg = make_domain("egg4")
    u = ClosedFormKernel(egg, [1.0, 0.0], 2.0)
    inside = np.array([0.2, 0.3])
    assert u(inside) == 2.0 * poisson_kernel(egg, [1.0, 0.0], inside).value
    for bad in (np.array([0.0, 1.1]), np.array([[0.2, 0.3], [0.0, 1.1]])):
        with pytest.raises(DomainError, match="inside the domain"):
            u.many(bad)
    with pytest.raises(DomainError, match="inside the domain"):
        u(np.array([0.0, 1.1]))
    with pytest.raises(UnsupportedDomainError):
        ClosedFormKernel(egg, [0.6, 0.64 ** 0.25], 1.0)


@pytest.mark.parametrize("spec, xi, z", [("disc", [1.0], [[0.3]]), ("half_plane", [0.0], [[-1.0]])])
def test_closed_form_kernel_refuses_jets_without_a_jet_form(monkeypatch, spec, xi, z):
    # Only the ball and egg forms take jets; elsewhere many() refuses a
    # JetPoint before it checks or evaluates any point.
    def refuse(*args):
        raise AssertionError("many() evaluated a point")

    u = ClosedFormKernel(make_domain(spec), xi, 1.0)
    u._form = refuse
    monkeypatch.setattr(kernels, "_inside_rows", refuse)
    with pytest.raises(UnsupportedDomainError, match="jet"):
        u.many(_jets.JetPoint(np.array(z, dtype=complex)))


# ---------------------------------------------------------------------------
# The geodesic route (oracles.poisson_geodesic) is the reference for the closed form.
# ---------------------------------------------------------------------------

_ROTATED = np.exp(0.7j)
_ROUTE_PAIRS = [("disc", [1.0]), ("disc", [_ROTATED]),
                ("ball2", [1.0, 0.0]), ("ball2", [_ROTATED, 0.0]), ("ball2", [0.6, 0.8j]),
                ("ball3", [1.0, 0.0, 0.0]), ("ball3", [_ROTATED, 0.0, 0.0]), ("ball3", [0.6, 0.48j, 0.64])]
_ROUTE_PAIRS += [(egg, pos) for egg in ("egg2", "egg4", "egg6") for pos in ([1.0, 0.0], [_ROTATED, 0.0])]


def _route_points(dom, xi):
    """Random interior points, some near the boundary, and the normal ladder at xi."""
    rng = np.random.default_rng(59)
    pts = [_random_interior(dom, rng) for _ in range(10)]
    pts += [_random_interior(dom, rng, lo=1.0 - 10.0 ** (-k), hi=1.0 - 10.0 ** (-k)) for k in range(2, 7)]
    pts += [xi.position - 10.0 ** (-j) * xi.normal for j in range(1, 9)]
    if dom.kind == "ball" and dom.n == 2 and xi.position[0] == 1.0:
        # The rungs of special_curve_limit, tangent to the sphere at xi.
        for lam in (0.0, 0.3, 0.6j):
            curve = gamma_lambda(lam)
            pts += [curve(1.0 - 10.0 ** (-j)) for j in range(1, 9)]
    return pts


@pytest.mark.parametrize("spec, pos", _ROUTE_PAIRS)
def test_closed_form_matches_geodesic_route(spec, pos):
    dom = make_domain(spec)
    xi = boundary_point(dom, np.array(pos, dtype=complex))
    for z in _route_points(dom, xi):
        closed = ClosedFormKernel(dom, xi, 1.0)(z)
        geo = poisson_geodesic(dom, xi, z)
        assert abs(closed - geo) <= 1e-7 * (1.0 + abs(closed)), (z, closed, geo)


def test_kernel_and_horofunction_take_the_closed_form_where_xi_has_one():
    cases = (("disc", [1.0], [0.0], [0.4j]),
             ("half_plane", [0.0], [-1.0], [-0.5]),
             ("ball2", [0.6, 0.8j], [0.0, 0.0], [0.1, 0.2]),
             ("ball3", [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.1, 0.2, 0.3]),
             ("egg4", [_ROTATED, 0.0], [0.0, 0.0], [0.2, 0.3j]),
             ({"kind": "ellipsoid", "m": [4, 4]}, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.1, 0.1, 0.1]))
    for spec, xi, p, z in cases:
        dom = make_domain(spec)
        assert poisson_kernel(dom, xi, z).method == "closed_form"
        assert horofunction(dom, xi, p, z).method == "closed_form"


def test_horofunction_kernel_form_without_closed_form_raises_at_once(monkeypatch):
    gc = make_domain({"kind": "general_convex", "n": 2},
                     rho=lambda z: np.sum(np.abs(z) ** 2, axis=-1) - 1.0)

    def no_ladder(*args):
        raise AssertionError("the kernel form ran a Green ladder")

    monkeypatch.setattr(kernels, "green_normal_derivative", no_ladder)
    with pytest.raises(UnsupportedDomainError, match="no closed-form kernel"):
        kernels._horofunction_rows(gc, [1.0, 0.0], [[0.0, 0.0]], [[0.3, 0.2]], "kernel")


def _one_point_outcome(fn, *args):
    """(value, uncertainty, method) of fn's KernelValue, or (type, message) of its error."""
    try:
        kv = fn(*args)
    except PluripotError as exc:
        return type(exc), str(exc)
    return kv.value, kv.uncertainty, kv.method


def _rows_outcome(dom, xi, p, z, method):
    """_one_point_outcome of each row of _horofunction_rows, or of its error."""
    try:
        rows = kernels._horofunction_rows(dom, xi, p, z, method)
    except PluripotError as exc:
        return type(exc), str(exc)
    return [(kv.value, kv.uncertainty, kv.method) for kv in rows]


def _one_row(dom, xi, p, z, method):
    """The public horofunction for method "auto", else the rows route on a stack of one."""
    if method == "auto":
        return horofunction(dom, xi, p, z)
    return kernels._horofunction_rows(dom, xi, [p], [z], method)[0]


def _check_stacked_horofunction(dom, xi, ps, zs, methods=("ladder", "auto")):
    """The stacked horofunction against the moved one-point ladder
    (oracles.horofunction_one_point), row by row: each row alone (the
    public horofunction, or a stack of one for a set method) gives the
    oracle's bits or error, a stack gives every row's bits when all rows
    pass, else one failing row's error; one p broadcasts over the stack
    as it does per point."""
    for method in methods:
        want = [_one_point_outcome(horofunction_one_point, dom, xi, p, z, method) for p, z in zip(ps, zs)]
        assert [_one_point_outcome(_one_row, dom, xi, p, z, method) for p, z in zip(ps, zs)] == want
        errors = [w for w in want if isinstance(w[0], type)]
        got = _rows_outcome(dom, xi, ps, zs, method)
        if errors:
            assert got in errors
        else:
            assert got == want
        broadcast = [_one_point_outcome(horofunction_one_point, dom, xi, ps[0], z, method) for z in zs]
        if not any(isinstance(w[0], type) for w in broadcast):
            assert _rows_outcome(dom, xi, [ps[0]], zs, method) == broadcast


_E1 = [1.0, 0.0]


@pytest.mark.parametrize("spec", ["ball2", "egg4", "egg6"])
def test_stacked_horofunction_is_the_one_point_ladder_at_e1(spec):
    dom = make_domain(spec)
    rng = np.random.default_rng(7)
    ps = np.array([_random_interior(dom, rng) for _ in range(6)])
    zs = np.array([_random_interior(dom, rng) for _ in range(6)])
    # An axis pair, and a row whose p and z coincide.
    ps[0], zs[0] = [0.3, 0.0], [-0.2j, 0.0]
    zs[1] = ps[1]
    _check_stacked_horofunction(dom, boundary_point(dom, _E1), ps, zs, ("ladder", "auto", "kernel"))


def test_stacked_horofunction_is_the_one_point_ladder_on_the_annulus():
    # Rungs j = 4 ... 11, each pair through annulus_distance.
    dom = make_domain({"kind": "annulus", "r": 0.5})
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.55, 0.95, 10) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 10))
    _check_stacked_horofunction(dom, [1.0], pts[:5, None], pts[5:, None])


def test_stacked_horofunction_off_axis_xi():
    # At an off-axis egg4 boundary point the axis pairs are exact: "auto"
    # gives them the kernel form of the Green-derivative kernels.  The
    # pairs of an off-axis z are sandwiched, where the slice bound fails
    # to capture the rungs near xi.
    dom = make_domain("egg4")
    xi = boundary_point(dom, [0.6, 0.8944271909999159])
    axis = np.array([[0.1, 0.0], [-0.3, 0.0], [0.2j, 0.0], [0.5, 0.0]])
    _check_stacked_horofunction(dom, xi, axis[:2], axis[2:])
    assert {kv.method for kv in kernels._horofunction_rows(dom, xi, axis[:2], axis[2:])} == {"green_derivative"}
    off = np.array([[0.2, 0.1j], [0.1, 0.2]])
    _check_stacked_horofunction(dom, xi, np.concatenate([axis[:2], axis[:1]]),
                                np.concatenate([axis[2:], off[:1]]))
    _check_stacked_horofunction(dom, xi, axis[:1], off[1:], ("ladder",))


def test_auto_horofunction_takes_the_ladder_only_on_rows_without_exact_kernels(monkeypatch):
    # The middle row's z is off the axis, so it alone goes to the ladder,
    # as a sub-stack of one: one distance call on its 2 x 8 rung pairs.
    from pluripot import geodesics_metrics

    dom = make_domain("egg4")
    xi = boundary_point(dom, [0.6, 0.8944271909999159])
    p = np.array([[0.1, 0.0], [-0.3, 0.0], [0.1, 0.0]])
    z = np.array([[0.2j, 0.0], [0.2, 0.1j], [0.5, 0.0]])
    pairs = []

    def rows(dom, zs, ws):
        pairs.append(len(zs))
        return [1.0] * len(zs), [0.0] * len(zs)

    monkeypatch.setattr(geodesics_metrics, "_distance_rows", rows)
    got = kernels._horofunction_rows(dom, xi, p, z)
    assert pairs == [16]
    assert [kv.method for kv in got] == ["green_derivative", "limit_ladder", "green_derivative"]
    for kv, a, b in zip(got[::2], p[::2], z[::2]):
        want = math.log(-poisson_kernel(dom, xi, a).value) - math.log(-poisson_kernel(dom, xi, b).value)
        assert kv.value == want and kv.uncertainty == 0.0


_GC_EGG4 = make_domain({"kind": "general_convex", "n": 2},
                       rho=lambda z: np.abs(z[..., 0]) ** 2 + np.abs(z[..., 1]) ** 4 - 1.0)


def test_stacked_horofunction_general_convex_sandwich_rungs(monkeypatch):
    # Every rung pair of a general_convex domain is sandwiched.  The
    # slice bound fails this close to the boundary, on both routes alike;
    # with a sandwich of a width that varies from pair to pair (the exact
    # egg4 distance +- e), each row gets its own widths.
    from pluripot import geodesics_metrics
    from pluripot.geodesics_metrics import DistanceBound

    xi = boundary_point(_GC_EGG4, _E1)
    _check_stacked_horofunction(_GC_EGG4, xi, np.array([[0.1, 0.0]]), np.array([[0.2, 0.1j]]), ("ladder",))

    egg4 = make_domain("egg4")
    exact = geodesics_metrics.kobayashi_distance

    def sandwich(dom, z, w):
        assert dom is _GC_EGG4
        d = exact(egg4, z, w)
        assert d.exact
        e = 1e-9 * (1.0 + abs(complex(z[0] - w[0])) + abs(complex(z[1] - w[1])))
        return DistanceBound(d.value - e, d.value + e, False)

    monkeypatch.setattr(geodesics_metrics, "_sandwich", sandwich)
    rng = np.random.default_rng(9)
    ps = np.array([_random_interior(egg4, rng) for _ in range(4)])
    zs = np.array([_random_interior(egg4, rng) for _ in range(4)])
    _check_stacked_horofunction(_GC_EGG4, xi, ps, zs, ("ladder",))
    widths = [kv.uncertainty for kv in kernels._horofunction_rows(_GC_EGG4, xi, ps, zs, "ladder")]
    assert min(widths) > 1e-9 and len(set(widths)) == 4


def test_stacked_horofunction_refuses_a_point_not_inside():
    # Every p, then every z, as require_interior names them one at a time.
    dom = make_domain("egg4")
    inside = np.array([[0.1, 0.2j], [0.3, 0.0]])
    bad = np.array([[0.1, 0.2j], [1.2, 0.0]])
    for p, z, name in ((bad, inside, "p"), (inside, bad, "z"), (bad, bad, "p")):
        with pytest.raises(DomainError, match=f"{name} must lie inside"):
            kernels._horofunction_rows(dom, _E1, p, z)
    with pytest.raises(DomainError, match=r"expected a point of C\^2, got shape \(3,\)"):
        horofunction(dom, _E1, [0.1, 0.0, 0.0], [0.1, 0.0])
    with pytest.raises(DomainError, match=r"got shape \(2, 2\)"):
        horofunction(dom, _E1, [0.1, 0.0], inside)


_EPS = float(np.finfo(float).eps)


def _log_tanh_half_error(k):
    want = log_tanh_half(k)
    return abs(_log_tanh_half(k) - want) / (_EPS * abs(want))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(k=st.floats(1e-300, 50.0))
def test_log_tanh_half_to_a_few_ulp(k):
    assert _log_tanh_half_error(k) <= 4.0


def test_log_tanh_half_to_a_few_ulp_on_every_scale():
    # Log-spaced over [1e-300, 50], the k = 8.6e-15 of a near-origin ball
    # pair, and both sides of the switch between the two forms.
    ks = np.geomspace(1e-300, 50.0, 400).tolist() + [8.6e-15, 1.0, math.nextafter(1.0, 2.0)]
    assert max(_log_tanh_half_error(k) for k in ks) <= 4.0


# ---------------------------------------------------------------------------
# The Green-derivative kernel of an ellipsoid at z0-axis points.
# ---------------------------------------------------------------------------

_ELLIPSOIDS = ["egg4", "egg6", {"kind": "ellipsoid", "m": [4, 4]}]


def _random_boundary(dom, rng):
    v = rng.standard_normal(dom.n) + 1j * rng.standard_normal(dom.n)
    return boundary_point(dom, v / minkowski_gauge(dom, v))


def _on_axis(dom, a):
    """The stack of points (a_i, 0, ..., 0) of the domain."""
    z = np.zeros((len(a), dom.n), dtype=complex)
    z[:, 0] = a
    return z


@pytest.mark.parametrize("spec", _ELLIPSOIDS, ids=str)
def test_green_derivative_is_the_closed_form_at_e1(spec):
    dom = make_domain(spec)
    xi = boundary_point(dom, np.eye(dom.n)[0])
    rng = np.random.default_rng(31)
    a = rng.uniform(-0.9, 0.9, 50) + 1j * rng.uniform(-0.4, 0.4, 50)
    closed = _closed_form(dom, xi)(_on_axis(dom, a))
    assert np.max(np.abs(kernels._axis_kernel(dom, xi)(a) - closed) / np.abs(closed)) <= 8 * _EPS


def test_green_derivative_on_egg2_is_the_ball_kernel():
    # egg2 is the unit ball: the formula matches the ball's closed form,
    # and egg2's own kernel at an off-axis xi is the ball's at every z.
    egg2, ball2 = make_domain("egg2"), make_domain("ball2")
    rng = np.random.default_rng(32)
    worst = 0.0
    for _ in range(200):
        xi = _random_boundary(egg2, rng)
        a = complex(*rng.uniform(-0.6, 0.6, 2))
        want = poisson_kernel(ball2, xi.position, [a, 0.0]).value
        worst = max(worst, abs(kernels._axis_kernel(egg2, xi)(np.array([a]))[0] - want) / abs(want))
        z = _random_interior(egg2, rng)
        assert poisson_kernel(egg2, xi, z) == poisson_kernel(ball2, xi.position, z)
    assert worst <= 8 * _EPS


@pytest.mark.parametrize("spec", _ELLIPSOIDS, ids=str)
def test_exact_kernels_stack_is_each_point_alone(spec):
    # At an off-axis xi every other row lies on the z0 axis and takes the
    # Green derivative; the rows off the axis have no exact kernel.  Each
    # row of stacks of 1, 3 and 37 rows is poisson_kernel's at its point
    # alone, bit for bit, or its refusal.
    dom = make_domain(spec)
    rng = np.random.default_rng(33)
    for count in (1, 3, 37):
        xi = _random_boundary(dom, rng)
        z = np.array([_random_interior(dom, rng) for _ in range(count)])
        z[::2, 1:] = 0.0
        method, values = kernels._exact_kernels(dom, xi, z)
        assert method == "green_derivative"
        assert [v is None for v in values] == [i % 2 == 1 for i in range(count)]
        for row, value in zip(z, values):
            if value is None:
                with pytest.raises(ConvergenceError, match="^no certified kernel at this pair$"):
                    poisson_kernel(dom, xi, row)
            else:
                kv = poisson_kernel(dom, xi, row)
                assert (kv.method, kv.uncertainty, _bits(kv.value)) == ("green_derivative", 0.0, _bits(value))
        assert kernels._kernel_rows(dom, xi, z[::2]).tobytes() == np.array(values[::2]).tobytes()
        if count > 1:
            with pytest.raises(ConvergenceError, match="^no certified kernel at this pair$"):
                kernels._kernel_rows(dom, xi, z)


@pytest.mark.parametrize("spec", _ELLIPSOIDS, ids=str)
def test_green_derivative_at_50_digits_near_the_boundary(spec):
    # Off-axis xi and z on the axis at gauge 1 - 10^-j, j = 1 ... 10.  The
    # error is the rounding of 1 - |a|^2, a few eps / (1 - |a|) relative.
    dom = make_domain(spec)
    rng = np.random.default_rng(34)
    for j in range(1, 11):
        xi = _random_boundary(dom, rng)
        a = (1.0 - 10.0 ** -j) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        kv = poisson_kernel(dom, xi, _on_axis(dom, [a])[0])
        want = axis_kernel_mp(dom.m, xi.position, a)
        assert kv.method == "green_derivative"
        assert abs(kv.value - want) <= 4 * _EPS / (1.0 - abs(a)) * abs(want)


def test_kernel_without_an_exact_route_refuses_before_any_green_value(monkeypatch):
    # The two refused kernel cases of the offcatalogue benchmark: egg4 at
    # an off-axis xi with an off-axis z, and egg4 as a general_convex
    # domain at e1.
    from pluripot import geodesics_metrics

    def refused(*args, **kwargs):
        raise AssertionError("a Green value, distance or sandwich")

    for module, name in ((kernels, "green_function"), (kernels, "green_normal_derivative"),
                         (geodesics_metrics, "_sandwich")):
        monkeypatch.setattr(module, name, refused)
    cases = ((make_domain("egg4"), [0.6, (1.0 - 0.6 ** 2) ** 0.25], [0.1, 0.1]),
             (_GC_EGG4, _E1, [0.3, 0.1j]))
    for dom, xi, z in cases:
        with pytest.raises(ConvergenceError, match="^no certified kernel at this pair$"):
            poisson_kernel(dom, xi, z)
