"""Numerics for the sphere of radius r embedded in R^3.

Points are 3-vectors of norm r; tangent increments live in R^2 through a
point-dependent orthonormal basis of the tangent plane. Perturbations act
by rotation so the radius is preserved exactly.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, CutLocusError
from .so3 import mat_a, skew, so3_exp

RADIUS_TOL = 1e-6  # relative norm error check_sphere accepts
_E = np.eye(3)


def check_sphere(x: np.ndarray, r: float) -> None:
    """Raise unless x lies on the sphere of radius r."""
    if x.shape != (3,):
        raise ContractViolationError(f"sphere point must be a 3-vector, got {x.shape}")
    n = float(np.linalg.norm(x))
    if abs(n - r) > RADIUS_TOL * max(r, 1.0):
        raise ContractViolationError(f"point norm {n:.6g} != radius {r:.6g}")


def sphere_basis(x: np.ndarray) -> np.ndarray:
    """Orthonormal tangent basis B(x), shape (3, 2), with B^T x = 0.

    The basis is the smallest rotation carrying the axis e_i of x's largest
    component onto n = x/|x|, applied to the two remaining axes e_j, e_k.
    With w = cross(e_i, n) and c = n_i that rotation is
    c I + skew(w) + w w^T / (1 + c).
    The largest component of a unit vector is at least -1/sqrt(3), so
    1 + c >= 1 - 1/sqrt(3) > 0.42 and no x needs a special case.
    """
    n = x / np.linalg.norm(x)
    i = int(np.argmax(n))
    j, k = (i + 1) % 3, (i + 2) % 3
    w = np.zeros(3)
    w[j], w[k] = -n[k], n[j]
    rot = n[i] * _E + skew(w) + np.outer(w, w) / (1.0 + n[i])
    return rot[:, [j, k]]


def sphere_boxplus(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Move x along tangent coordinates u (radians): Exp(B(x) u) x."""
    return so3_exp(sphere_basis(x) @ u) @ x


def sphere_boxminus(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Tangent coordinates at x pointing to y; inverse of sphere_boxplus.

    Undefined at the antipode of x, where every direction is a shortest
    path; that case raises CutLocusError.
    """
    cx = skew(x) @ y
    s = float(np.linalg.norm(cx))
    c = float(x @ y)
    if s < 1e-9 * float(x @ x):
        if c < 0.0:
            raise CutLocusError("points are antipodal; boxminus is undefined")
        return np.zeros(2)
    return sphere_basis(x).T @ ((np.arctan2(s, c) / s) * cx)


def sphere_oplus(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate x by the rotation vector v: Exp(v) x."""
    return so3_exp(v) @ x


def sphere_m(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """d(sphere_boxplus(x, u))/du, shape (3, 2)."""
    b = sphere_basis(x)
    w = b @ u
    return -so3_exp(w) @ skew(x) @ mat_a(w).T @ b
