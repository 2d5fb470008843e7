"""Boundary dilation, Julia inequalities, and special-curve limits."""

import math
from dataclasses import replace

import numpy as np
import pytest

from pluripot import (
    PluripotError,
    dilation,
    gamma_lambda,
    julia_checks,
    map_from_spec,
    normalized_dilation,
    omega_preserving_residual,
    special_curve_limit,
)

E1 = np.array([1.0, 0.0])


def _ball_samples(rng, count, n=2):
    out = []
    for _ in range(count):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        out.append(v / np.linalg.norm(v) * rng.uniform(0.1, 0.7))
    return out


def test_map_catalogue():
    mp = map_from_spec("identity")
    assert mp.source.label == mp.target.label
    z = np.array([0.2, 0.1j])
    assert np.allclose(mp(z), z)

    mp = map_from_spec("coordinate_projection")
    assert mp.target.n == 1
    assert np.allclose(mp(z), [0.2])

    mp = map_from_spec("egg_to_ball", m=4)
    assert np.allclose(mp(np.array([0.1, 0.2 + 0.1j])), [0.1, (0.2 + 0.1j) ** 2])

    with pytest.raises(PluripotError):
        map_from_spec("moebius_banana")


def test_dilation_identity_is_one():
    mp = map_from_spec("identity")
    lam, unc = dilation(mp, E1, E1)
    assert abs(lam - 1.0) < 1e-8
    assert unc < 1e-6


def test_dilation_uncertainty_carries_the_rung_sandwich_widths(monkeypatch):
    # A sandwiched rung distance is only known to within its width: the
    # uncertainty takes half the widest rung's source and target widths
    # together, on top of the extrapolation's, scaled by lambda.
    from pluripot import geodesics_metrics

    mp = map_from_spec("identity")
    lam, unc = dilation(mp, E1, E1)
    assert (lam, unc) == (1.0, 0.0)
    exact_rows = geodesics_metrics._distance_rows
    widths = iter([[0.1, 0.3, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0],
                   [0.5, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])

    def sandwiched(dom, z, w):
        return exact_rows(dom, z, w)[0], next(widths)

    monkeypatch.setattr(geodesics_metrics, "_distance_rows", sandwiched)
    assert dilation(mp, E1, E1) == (1.0, 0.5 * (0.3 + 0.4))


def test_normalized_dilation_alpha_one():
    # kernel-preserving maps have alpha = 1 at the matched boundary point
    mp = map_from_spec("egg_to_ball", m=4)
    assert abs(normalized_dilation(mp, E1, E1) - 1.0) < 1e-8

    mp = map_from_spec("coordinate_projection")
    assert abs(normalized_dilation(mp, E1, np.array([1.0])) - 1.0) < 1e-8


def test_alpha_base_point_independence():
    # alpha depends on the map and the boundary points, not on the bases
    rng = np.random.default_rng(97)
    projection = map_from_spec("coordinate_projection")
    vals = []
    for _ in range(5):
        base = rng.standard_normal(2) * 0.3
        mp = replace(projection, source_base=base, target_base=projection(base))
        vals.append(normalized_dilation(mp, E1, np.array([1.0])))
    assert max(vals) - min(vals) < 1e-6


def test_julia_checks_identity():
    mp = map_from_spec("identity")
    rng = np.random.default_rng(101)
    out = julia_checks(mp, E1, E1, _ball_samples(rng, 40))
    assert out["mj_holds"] and out["pj_holds"]
    assert abs(out["lambda"] - 1.0) < 1e-8
    assert abs(out["alpha"] - 1.0) < 1e-8
    # the identity attains equality everywhere
    assert abs(out["mj_sup"]) < 1e-7
    assert abs(out["pj_sup"] - 1.0) < 1e-7
    assert out["consistency_residual"] < 1e-9


def test_julia_checks_projection_strict():
    mp = map_from_spec("coordinate_projection")
    rng = np.random.default_rng(103)
    samples = _ball_samples(rng, 40) + [np.array([0.5, 0.3])]
    out = julia_checks(mp, E1, np.array([1.0]), samples)
    assert out["mj_holds"] and out["pj_holds"]
    assert out["consistency_residual"] < 1e-9
    # off the z1 = 0 slice the inequality is strict
    z = np.array([0.5, 0.3])
    from pluripot import make_domain, poisson_kernel

    oz = poisson_kernel(mp.source, E1, z).value
    ow = poisson_kernel(mp.target, np.array([1.0]), mp(z)).value
    assert oz / ow < out["alpha"] - 1e-3


def test_julia_checks_egg_to_ball():
    mp = map_from_spec("egg_to_ball", m=4)
    rng = np.random.default_rng(107)
    samples = []
    from pluripot import minkowski_gauge

    for _ in range(30):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        samples.append(v / minkowski_gauge(mp.source, v) * rng.uniform(0.1, 0.6))
    out = julia_checks(mp, E1, E1, samples)
    assert out["mj_holds"] and out["pj_holds"]
    assert abs(out["alpha"] - 1.0) < 1e-8
    assert out["sup_attained_gap"] < 1e-6


def test_omega_preserving_residual():
    mp = map_from_spec("egg_to_ball", m=4)
    rng = np.random.default_rng(109)
    from pluripot import minkowski_gauge

    samples = []
    for _ in range(100):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        samples.append(v / minkowski_gauge(mp.source, v) * rng.uniform(0.1, 0.7))
    assert omega_preserving_residual(mp, E1, E1, samples) < 1e-10

    mp = map_from_spec("coordinate_projection")
    res = omega_preserving_residual(mp, E1, np.array([1.0]), [np.array([0.5, 0.3])])
    assert res > 1e-2


def test_special_curve_limits():
    for lam in (0.0, 0.3, 0.6j):
        out = special_curve_limit(lam)
        expected = -2.0 * (1.0 - abs(lam) ** 2)
        assert abs(out["expected"] - expected) < 1e-15
        assert abs(out["kernel_limit"] - expected) < 1e-3
        assert out["kernel_uncertainty"] < 1e-3
        # boundary-distance ratio along the curve
        assert abs(out["delta_ratio"] - (1.0 - abs(lam) ** 2)) < 1e-3


def test_gamma_lambda_domain():
    g = gamma_lambda(0.3)
    t = 0.9
    z = g(t)
    assert abs(z[0] - t) < 1e-15
    assert abs(z[1] - 0.3 * math.sqrt(1.0 - t * t)) < 1e-15
    with pytest.raises(PluripotError):
        gamma_lambda(1.0)
    with pytest.raises(PluripotError):
        gamma_lambda(2.0j)


def test_omega_preserving_residual_keeps_nan(monkeypatch):
    from pluripot import kernels

    mp = map_from_spec("identity", n=2)
    # Kernel values on the stack: NaN at the first sample, 0 elsewhere.
    fake = lambda dom, xi, z: np.where(z[:, 0].real < 0.2, math.nan, 0.0)
    monkeypatch.setattr(kernels, "_kernel_rows", fake)
    worst = omega_preserving_residual(mp, E1, E1, [np.array([0.1, 0.0]), np.array([0.5, 0.0])])
    assert math.isnan(worst)


def test_julia_checks_nan_sample_fails(monkeypatch):
    from pluripot import kernels

    real = kernels._horofunction_rows
    marker = np.array([0.3, 0.1j])

    def fake(dom, xi, p, z):
        # The horofunction is NaN at the marker sample.
        return [kernels.KernelValue(math.nan, kv.method, kv.uncertainty) if np.all(row == marker) else kv
                for row, kv in zip(z, real(dom, xi, p, z))]

    monkeypatch.setattr(kernels, "_horofunction_rows", fake)
    out = julia_checks(map_from_spec("identity"), E1, E1, [np.array([0.2, 0.0]), marker])
    assert math.isnan(out["mj_sup"])
    assert not out["mj_holds"]
