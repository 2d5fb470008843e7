"""Finite-difference stencils on complex coordinates.

All stencils act on real-valued functions u of a point z in C^n (numpy
complex vector).  The complex Hessian entries are u_{j kbar} =
d^2 u / dz_j dzbar_k in the convention where u(z) = ||z||^2 has Hessian
equal to the identity matrix.
"""

from __future__ import annotations

import numpy as np


def directional_laplacian(u, z, v, h, u0):
    """Quarter of the 4-point Laplacian of u along the complex line z + C v.

    u0 is u(z).  Returns sum_{j,k} u_{j kbar} v_j conj(v_k) up to O(h^2)
    truncation.
    """
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    s = u(z + h * v) + u(z - h * v) + u(z + 1j * h * v) + u(z - 1j * h * v)
    return (s - 4.0 * u0) / (4.0 * h * h)


def hessian_matrix(u, z, h):
    """Complex Hessian of u at z by 4-point stencils and polarization.

    Diagonal entries come from directional Laplacians along coordinate
    axes.  Off-diagonal entries are recovered by polarization:
        Re u_{j kbar} = (L(e_j + e_k) - L(e_j - e_k)) / 4
        Im u_{j kbar} = (L(e_j + i e_k) - L(e_j - i e_k)) / 4
    The result is Hermitian-symmetrized.
    """
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    u0 = u(z)
    eye = np.eye(n)

    def lap(v):
        return directional_laplacian(u, z, v, h, u0)

    H = np.zeros((n, n), dtype=complex)
    for j in range(n):
        H[j, j] = lap(eye[j])
    for j in range(n):
        for k in range(j + 1, n):
            re = (lap(eye[j] + eye[k]) - lap(eye[j] - eye[k])) / 4.0
            im = (lap(eye[j] + 1j * eye[k]) - lap(eye[j] - 1j * eye[k])) / 4.0
            H[j, k] = re + 1j * im
            H[k, j] = np.conj(H[j, k])
    return (H + H.conj().T) / 2.0


def hessian_richardson(u, z, h):
    """Step-halved complex Hessian with Richardson extrapolation.

    Returns (matrix, gap).  The matrix is the h^2-error-cancelling
    combination (4 H(h/2) - H(h)) / 3; the gap is the relative
    discrepancy between the two raw estimates and serves as the
    truncation diagnostic.
    """
    H1 = hessian_matrix(u, z, h)
    H2 = hessian_matrix(u, z, h / 2.0)
    scale = max(1.0, float(np.max(np.abs(H2))))
    gap = float(np.max(np.abs(H1 - H2))) / scale
    return (4.0 * H2 - H1) / 3.0, gap


def laplacian_5pt(u, zeta, h):
    """5-point Laplacian of u at a point of C (full Delta, not 1/4)."""
    zeta = complex(zeta)
    u0 = u(zeta)
    s = u(zeta + h) + u(zeta - h) + u(zeta + 1j * h) + u(zeta - 1j * h)
    return (s - 4.0 * u0) / (h * h)
