"""Finite-difference stencils on complex coordinates.

All stencils act on real-valued functions u of a point z in C^n (numpy
complex vector).  The complex Hessian entries are u_{j kbar} =
d^2 u / dz_j dzbar_k in the convention where u(z) = ||z||^2 has Hessian
equal to the identity matrix.  They serve the functions that jets
cannot evaluate: complex_hessian of any callable u, the Levi form of
a general_convex rho, and the 5-point Laplacians of the annulus suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class HessianSample:
    """A complex Hessian estimate at one point, with its eigenvalues."""

    matrix: np.ndarray
    richardson_gap: float
    eigenvalues: np.ndarray


def _on_stack(u):
    """u, a function of one point, as a function of a stack (k, n): the
    array call many of a kernels.ClosedFormKernel, else u on each row."""
    many = getattr(u, "many", None)
    if many is not None:
        return many
    return lambda pts: np.array([u(p) for p in pts])


def complex_hessian(u, z, h):
    """Complex Hessian of u at the point z with step-halving Richardson control.

    u is a function of one point.  It is evaluated once, on every
    stencil point as one stack: a kernels.ClosedFormKernel in one array
    call.  The matrix is the extrapolated combination of the h and h/2
    stencils; richardson_gap records their relative discrepancy.
    """
    if not h > 0:
        raise DomainError("stencil step must be positive")
    matrix, gap = hessian_richardson(_on_stack(u), np.asarray(z, dtype=complex), float(h))
    return HessianSample(matrix=matrix, richardson_gap=gap, eigenvalues=np.linalg.eigvalsh(matrix))


def error_bound(matrix, gap, magnitude, h):
    """Error estimate of the entries of a Richardson Hessian of step h.

    The step-halving gap, which is relative to max(1, |H|), stands for
    the truncation error; eps |u| / h^2 is the rounding of values of
    size magnitude.
    """
    return gap * max(1.0, float(np.max(np.abs(matrix)))) + _EPS * magnitude / (h * h)


@functools.lru_cache(maxsize=8)
def _directions(n):
    """Complex directions of the Hessian stencil in C^n, shape (m, n).

    The coordinate axes e_j come first, then e_j + e_k, e_j - e_k,
    e_j + i e_k and e_j - i e_k for each j < k: the order in which
    _assemble reads their Laplacians.  Read-only, built once per n.
    """
    eye = np.eye(n)
    rows = list(eye)
    for j in range(n):
        for k in range(j + 1, n):
            rows += [eye[j] + eye[k], eye[j] - eye[k], eye[j] + 1j * eye[k], eye[j] - 1j * eye[k]]
    table = np.array(rows, dtype=complex)
    table.flags.writeable = False
    return table


def _assemble(lap, n):
    """Hermitian complex Hessians from the directional Laplacians lap.

    lap has shape (..., m), one Laplacian per direction of
    _directions(n); the result has shape (..., n, n).  Diagonal entries
    are the Laplacians along the coordinate axes.  Off-diagonal entries
    are recovered by polarization:
        Re u_{j kbar} = (L(e_j + e_k) - L(e_j - e_k)) / 4
        Im u_{j kbar} = (L(e_j + i e_k) - L(e_j - i e_k)) / 4
    The result is Hermitian-symmetrized.
    """
    H = np.zeros(lap.shape[:-1] + (n, n), dtype=complex)
    for j in range(n):
        H[..., j, j] = lap[..., j]
    i = n
    for j in range(n):
        for k in range(j + 1, n):
            re = (lap[..., i] - lap[..., i + 1]) / 4.0
            im = (lap[..., i + 2] - lap[..., i + 3]) / 4.0
            H[..., j, k] = re + 1j * im
            H[..., k, j] = np.conj(H[..., j, k])
            i += 4
    return (H + np.conj(np.swapaxes(H, -1, -2))) / 2.0


def hessian_richardson(values, z, h):
    """Step-halved complex Hessian at the point z with Richardson extrapolation.

    values maps a stack of points to their real values; it is called
    once, on z and the 4-point stencils of steps h and h/2 along every
    direction of _directions(n) about it.  The quarter Laplacian along v
    is (sum of the 4 values - 4 u(z)) / (4 h^2), which approximates
    sum_{j,k} u_{j kbar} v_j conj(v_k) up to O(h^2).

    Returns (matrix, gap).  The matrix is the h^2-error-cancelling
    combination (4 H(h/2) - H(h)) / 3; the gap is the relative
    discrepancy between the two raw estimates and serves as the
    truncation diagnostic.
    """
    n = len(z)
    table = _directions(n)
    hs = np.array([h, h / 2.0])
    hv = hs[:, None, None] * table
    ihv = (1j * hs)[:, None, None] * table
    # Axis 1 runs over z + h v, z - h v, z + i h v, z - i h v.
    pts = np.stack([z + hv, z - hv, z + ihv, z - ihv], axis=1)
    vals = values(np.concatenate([z[None], pts.reshape(-1, n)]))
    s = vals[1:].reshape(2, 4, len(table))
    lap = (s[:, 0] + s[:, 1] + s[:, 2] + s[:, 3] - 4.0 * vals[0]) / (4.0 * hs * hs)[:, None]
    H1, H2 = _assemble(lap, n)
    gap = np.max(np.abs(H1 - H2)) / np.maximum(1.0, np.max(np.abs(H2)))
    return (4.0 * H2 - H1) / 3.0, float(gap)


def laplacian_1d(u, zeta, h):
    """5-point Laplacian of u at a point of C (full Delta, not 1/4)."""
    zeta = complex(zeta)
    u0, east, west, north, south = [u(w) for w in (zeta, zeta + h, zeta - h, zeta + 1j * h, zeta - 1j * h)]
    return (east + west + north + south - 4.0 * u0) / (h * h)
