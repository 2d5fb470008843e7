"""The boundary-limit engine: normal ladders and Aitken acceptance."""

import math

import numpy as np
import pytest

from pluripot import (
    BoundaryPoint,
    ConvergenceError,
    DomainError,
    boundary_point,
    make_domain,
)
from pluripot._extrap import aitken, extrapolate, normal_ladder

E1 = np.array([1.0, 0.0])


def test_extrapolate_accepts_geometric_ladder():
    vals = [2.0 - 0.1 ** k for k in range(1, 9)]
    est, unc = extrapolate(vals, "geometric")
    assert (est, unc) == aitken(vals)
    assert abs(est - 2.0) < 1e-12


def test_extrapolate_rejects_expanding_ladder():
    with pytest.raises(ConvergenceError, match="expanding test ladder diverges"):
        extrapolate([1.0, 1.1, 1.11, 2.0], "expanding test")


def test_extrapolate_rejects_unsettled_ladder():
    # Gaps halve, so the tail is not expanding, but the Aitken correction
    # (0.25) is far above 1e-4 (1 + |estimate|).
    with pytest.raises(ConvergenceError, match="slow ladder did not settle"):
        extrapolate([1.0, 1.5, 1.75], "slow")


def test_extrapolate_rejects_nan_and_short_ladders():
    with pytest.raises(ConvergenceError):
        extrapolate([1.0, 1.01, math.nan], "nan")
    with pytest.raises(ConvergenceError):
        extrapolate([1.0, 1.01, 1.0101, math.nan, 1.0], "nan inside the tail")
    with pytest.raises(ConvergenceError, match="at least 3 rungs"):
        extrapolate([1.0, 1.0], "short")


def test_normal_ladder_rungs():
    ball2 = make_domain("ball2")
    rungs = normal_ladder(ball2, E1, range(1, 4))
    for j, w in zip(range(1, 4), rungs):
        assert np.allclose(w, [1.0 - 10.0 ** (-j), 0.0])


def test_normal_ladder_refuses_rung_outside_domain():
    ball2 = make_domain("ball2")
    # j = -1 steps 10 units inward from e1, through the ball and out.
    with pytest.raises(DomainError, match="left the domain"):
        normal_ladder(ball2, E1, range(-1, 3))


def test_boundary_point_returns_boundary_point_unchanged():
    egg4 = make_domain("egg4")
    bp = boundary_point(egg4, E1)
    assert isinstance(bp, BoundaryPoint)
    assert boundary_point(egg4, bp) is bp
