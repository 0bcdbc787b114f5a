"""Numerics for the sphere of radius r embedded in R^3.

Points are 3-vectors of norm r (``sphere_boxminus`` also takes stacks);
tangent increments live in R^2 through a point-dependent orthonormal basis
of the tangent plane. Perturbations act by rotation, preserving the radius.
``sphere_boxplus``, ``sphere_oplus`` and ``sphere_m`` are reference formulas
for the tests; perfbench's tracer still wraps them by name.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError, CutLocusError
from .so3 import dot_rows, mat_a, skew, so3_exp

RADIUS_TOL = 1e-6  # relative norm error check_sphere accepts


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
    n = (x / math.sqrt(x.dot(x))).tolist()  # the sum np.linalg.norm takes
    c = max(n)
    i = n.index(c)  # the first largest, as np.argmax
    j, k = (i + 1) % 3, (i + 2) % 3
    wj, wk, d, z = -n[k], n[j], 1.0 + c, c * 0.0  # w_i = 0; z off the diagonal of c I
    # columns j, k of c I + skew(w) + w w^T / (1 + c), each entry summed in that
    # order so that even the signs of zeros match; F-ordered as that column
    # slice is, since the BLAS products that take B round differently on a
    # C-ordered copy of the same values, and the filter's records would change
    b = np.empty((3, 2), order="F")
    b[i, 0] = (z - wk) + 0.0 * wj / d
    b[j, 0] = c + wj * wj / d
    b[k, 0] = wk * wj / d + 0.0
    b[i, 1] = (z + wj) + 0.0 * wk / d
    b[j, 1] = z + wj * wk / d
    b[k, 1] = c + wk * wk / d
    return b


def sphere_boxplus(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Move x along tangent coordinates u (radians): Exp(B(x) u) x."""
    return so3_exp(sphere_basis(x) @ u) @ x


def sphere_boxminus(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Tangent coordinates (..., 2) at x pointing to y, for (..., 3) stacks
    that broadcast; inverse of sphere_boxplus.

    Undefined at the antipode of x, where every direction is a shortest
    path; that case, in any row, raises CutLocusError.
    """
    cx = x[..., [1, 2, 0]] * y[..., [2, 0, 1]] - x[..., [2, 0, 1]] * y[..., [1, 2, 0]]
    s = np.sqrt(dot_rows(cx, cx))
    c = dot_rows(x, y)
    same = s < 1e-9 * dot_rows(x, x)
    if np.any(same & (c < 0.0)):
        raise CutLocusError("points are antipodal; boxminus is undefined")
    w = np.divide(np.arctan2(s, c), s, out=np.zeros_like(s), where=~same)[..., None] * cx
    b = np.array([sphere_basis(p) for p in x.reshape(-1, 3)]).reshape(x.shape[:-1] + (3, 2))
    return (w[..., None, :] @ b)[..., 0, :]


def sphere_oplus(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate x by the rotation vector v: Exp(v) x."""
    return so3_exp(v) @ x


def sphere_m(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """d(sphere_boxplus(x, u))/du, shape (3, 2)."""
    b = sphere_basis(x)
    w = b @ u
    return -so3_exp(w) @ skew(x) @ mat_a(w).T @ b
