"""One-dimensional hyperbolic geometry: disc, half-plane, annulus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pluripot import (
    DomainError,
    annulus_distance,
    annulus_horofunction,
    disc_distance,
    halfplane_distance,
    horofunction,
    horofunction_disc,
    make_domain,
)
from pluripot._extrap import aitken

from oracles import (AngularApproach, angular_derivative, cayley, cayley_inverse,
                     halfplane_distance_formula, poisson_disc, poisson_halfplane, strip_distance)


def _mobius(a, theta):
    a = complex(a)
    rot = np.exp(1j * theta)

    def g(z):
        return rot * (z - a) / (1.0 - np.conj(a) * z)

    return g


def test_disc_distance_basics():
    assert abs(disc_distance(0.0, 0.5) - math.log(3.0)) < 1e-14
    assert disc_distance(0.3j, 0.3j) == 0.0
    # transported pair: |0.3 - (-0.3)| / |1 - 0.09|
    target = disc_distance(0.0, 0.6 / 1.09)
    assert abs(disc_distance(0.3, -0.3) - target) < 1e-13


def test_disc_distance_symmetry_triangle():
    rng = np.random.default_rng(3)
    pts = [complex(*p) for p in rng.uniform(-0.6, 0.6, size=(12, 2))]
    for i in range(0, 12, 3):
        a, b, c = pts[i], pts[i + 1], pts[i + 2]
        assert abs(disc_distance(a, b) - disc_distance(b, a)) < 1e-13
        assert disc_distance(a, c) <= disc_distance(a, b) + disc_distance(b, c) + 1e-12


def test_disc_distance_mobius_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = complex(*rng.uniform(-0.65, 0.65, 2))
        w = complex(*rng.uniform(-0.65, 0.65, 2))
        g = _mobius(complex(*rng.uniform(-0.5, 0.5, 2)), rng.uniform(0, 2 * math.pi))
        assert abs(disc_distance(g(z), g(w)) - disc_distance(z, w)) < 1e-12


def test_disc_distance_rejects_boundary():
    with pytest.raises(DomainError):
        disc_distance(1.0, 0.5)


def test_cayley_transform():
    assert abs(cayley(0.0) - (-1.0)) < 1e-15
    assert abs(cayley_inverse(cayley(0.5j)) - 0.5j) < 1e-14
    # derivative of the inverse at 0, by a centered quotient
    h = 1e-6
    d = (cayley_inverse(h) - cayley_inverse(-h)) / (2.0 * h)
    assert abs(d - 2.0) < 1e-9
    with pytest.raises(DomainError):
        cayley(-1.0)


def test_poisson_kernels_1d():
    assert abs(poisson_disc(0.0, 1.0) - (-1.0)) < 1e-15
    assert abs(poisson_halfplane(-1.0) - (-2.0)) < 1e-15
    for t in (0.9, 0.99, 0.999):
        assert abs(poisson_disc(t, 1.0) * (1.0 - t) + (1.0 + t)) < 1e-12
    assert poisson_disc(0.3 + 0.2j, 1j) < 0
    with pytest.raises(DomainError):
        poisson_disc(1.0, 1.0)


def test_poisson_disc_matches_horofunction_ladder():
    # -exp(-h) with h from the raw distance-limit ladder.
    for zeta in (0.3, -0.2 + 0.4j, 0.1j):
        vals = [
            disc_distance(zeta, 1.0 - 10.0 ** (-j)) - disc_distance(1.0 - 10.0 ** (-j), 0.0)
            for j in range(3, 9)
        ]
        est, _ = aitken(vals)
        assert abs(poisson_disc(zeta, 1.0) + math.exp(-est)) < 1e-8


def test_halfplane_distance_against_disc():
    z, w = 0.2 + 0.1j, -0.3 + 0.4j
    assert abs(halfplane_distance(cayley(z), cayley(w)) - disc_distance(z, w)) < 1e-12


@settings(max_examples=300, deadline=None, derandomize=True)
@given(exponent=st.integers(-300, 300), shape=st.sampled_from([(), (1,), (7,), (2, 3)]),
       bad=st.sampled_from([None, 0.0, -0.0, 1e-300, 2.5]), data=st.data())
def test_stacked_halfplane_distance_is_the_one_pair_formula(exponent, shape, bad, data):
    # Pairs at a common magnitude 10^exponent, Im w possibly a signed
    # zero; with bad set, one Re w of the stack is >= 0.
    scale = 10.0 ** exponent
    size = math.prod(shape)
    mantissa = st.floats(1e-6, 1e6)
    ims = st.one_of(st.sampled_from([0.0, -0.0]), st.builds(lambda x, sign: sign * x * scale, mantissa,
                                                            st.sampled_from([1.0, -1.0])))
    pts = [complex(-data.draw(mantissa) * scale, data.draw(ims)) for _ in range(2 * size)]
    if bad is not None:
        i = data.draw(st.integers(0, 2 * size - 1))
        pts[i] = complex(bad, pts[i].imag)
    w1, w2 = np.array(pts[:size]).reshape(shape), np.array(pts[size:]).reshape(shape)
    if bad is not None:
        with pytest.raises(DomainError):
            halfplane_distance(w1, w2)
        with pytest.raises(DomainError):
            [halfplane_distance_formula(a, b) for a, b in zip(w1.ravel(), w2.ravel())]
        return
    got = halfplane_distance(w1, w2)
    want = np.array([halfplane_distance_formula(a, b) for a, b in zip(w1.ravel(), w2.ravel())])
    assert type(got) is (float if shape == () else np.ndarray)
    assert np.array(got).tobytes() == want.reshape(shape).tobytes()
    assert np.isfinite(want).all()


def test_halfplane_distance_at_extreme_common_magnitudes():
    # The distance is invariant under w -> t w (t > 0): exactly so for
    # powers of two, to rounding for powers of ten.
    w1, w2 = -1.0 + 0.5j, -0.25 - 2.0j
    base = halfplane_distance(w1, w2)
    for k in (-996, -500, 500, 996):
        assert halfplane_distance(w1 * 2.0 ** k, w2 * 2.0 ** k) == base
    for e in (-300, 300):
        assert abs(halfplane_distance(w1 * 10.0 ** e, w2 * 10.0 ** e) - base) < 1e-14 * base


def test_halfplane_distance_where_one_minus_rho_sq_underflows():
    # At magnitudes far apart 1 - rho^2 = 4 y1 y2 / den underflows: to 0
    # (the first pair once raised ZeroDivisionError) or to a subnormal.
    # The log form gives the 50-digit distance arccosh(1 + |u1 - u2|^2 /
    # (2 y1 y2)) of u = -i w; in a stack the other pairs keep their bits.
    import mpmath

    def reference(w1, w2):
        with mpmath.workdps(50):
            u1, u2 = -1j * mpmath.mpc(w1), -1j * mpmath.mpc(w2)
            return float(mpmath.acosh(1 + abs(u1 - u2) ** 2 / (2 * u1.imag * u2.imag)))

    pairs = [(-1e-200, -1e-200 + 1j), (-1e-310, -1.0), (-1e-300, -1e10), (-1e-320, -1e10 + 3e9j),
             (-1e-300, -1e300 + 5j)]
    for w1, w2 in pairs:
        want = reference(w1, w2)
        assert abs(halfplane_distance(w1, w2) - want) <= 1e-12 * want
        assert abs(halfplane_distance(w2, w1) - want) <= 1e-12 * want
    w1 = np.array([-1e-200, -1.0 + 0.5j, -1e-310])
    w2 = np.array([-1e-200 + 1j, -0.25 - 2.0j, -1.0])
    got = halfplane_distance(w1, w2)
    assert got[1] == halfplane_distance(w1[1], w2[1])
    assert got[0] == halfplane_distance(w1[0], w2[0]) and got[2] == halfplane_distance(w1[2], w2[2])


def test_annulus_distance_basics():
    assert annulus_distance(0.5, 0.7, 0.7) == 0.0
    d1 = annulus_distance(0.5, 0.7, 0.8)
    rot = np.exp(0.9j)
    assert abs(annulus_distance(0.5, 0.7 * rot, 0.8 * rot) - d1) < 1e-12
    assert abs(annulus_distance(0.5, 0.7, 0.8) - annulus_distance(0.5, 0.8, 0.7)) < 1e-12
    with pytest.raises(DomainError):
        annulus_distance(0.5, 0.4, 0.7)


def test_annulus_distance_metric_integral_oracle():
    # Independent oracle: for real points the deck minimum is the principal
    # lift and the strip geodesic is the horizontal segment, so the distance
    # is the integral of the strip density (pi/L)/sin(pi (x - log r)/L).
    assert abs(annulus_distance(0.5, 0.7, 0.71) - 0.06430693332643882) < 1e-3
    assert abs(annulus_distance(0.5, 0.7, 0.71) - 0.06430693332643882) < 1e-12


def test_annulus_distance_covering_contraction():
    # Projection contracts: the annulus distance never exceeds the strip
    # distance of the principal lifts, with equality for real pairs.
    rng = np.random.default_rng(9)
    for _ in range(20):
        mz, mw = rng.uniform(0.55, 0.95, 2)
        tz, tw = rng.uniform(-math.pi, math.pi, 2)
        z = mz * np.exp(1j * tz)
        w = mw * np.exp(1j * tw)
        lifted = strip_distance(0.5, complex(np.log(z)), complex(np.log(w)))
        assert annulus_distance(0.5, z, w) <= lifted + 1e-11
    for x, y in ((0.7, 0.9), (0.55, 0.6), (0.51, 0.99)):
        assert abs(annulus_distance(0.5, x, y) - strip_distance(0.5, math.log(x), math.log(y))) < 1e-11


def test_annulus_horofunction_base_and_ladder():
    # The strip closed form against the annulus ladder of kernels.horofunction.
    r, p = 0.5, 0.7
    dom = make_domain("annulus", r=r)
    assert abs(annulus_horofunction(r, 1.0, p, p)) < 1e-12
    for z in (0.6, 0.8 * np.exp(0.7j), 0.55 - 0.3j):
        closed = annulus_horofunction(r, 1.0, p, z)
        ladder = horofunction(dom, [1.0], [p], [z]).value
        assert abs(closed - ladder) < 1e-6


def test_annulus_horofunction_cocycle():
    r, p, q = 0.5, 0.7, 0.8
    rng = np.random.default_rng(13)
    for _ in range(10):
        z = rng.uniform(0.55, 0.95) * np.exp(1j * rng.uniform(-math.pi, math.pi))
        lhs = annulus_horofunction(r, 1.0, p, z) - annulus_horofunction(r, 1.0, q, z)
        rhs = annulus_horofunction(r, 1.0, p, q)
        assert abs(lhs - rhs) < 1e-6


def test_annulus_horofunction_rejects_inner_target():
    with pytest.raises(Exception):
        annulus_horofunction(0.5, 0.5, 0.7, 0.6)


def test_angular_approach_is_nontangential():
    ap = AngularApproach(xi=1.0, aperture=2.0)
    for z in ap.points():
        assert abs(1.0 - z) / (1.0 - abs(z)) <= ap.M + 1e-12


def test_angular_derivative_probes():
    assert abs(angular_derivative(lambda z: z, 1.0) - 1.0) < 1e-12
    assert abs(angular_derivative(lambda z: z * z, 1.0) - 2.0) < 1e-9
    for a in (0.2, 0.4, 0.8):
        f = lambda z: (z - a) / (1.0 - a * z)
        expected = (1.0 + a) / (1.0 - a)
        assert abs(angular_derivative(f, 1.0) - expected) < 1e-6


def test_horofunction_disc_closed_form():
    # h_{1,0}(z) = log(|1-z|^2 / (1-|z|^2))
    for z in (0.3, -0.4 + 0.2j):
        expected = math.log(abs(1 - z) ** 2 / (1 - abs(z) ** 2))
        assert abs(horofunction_disc(1.0, 0.0, z) - expected) < 1e-12
