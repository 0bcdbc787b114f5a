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

from .errors import CutLocusError
from .so3 import mat_a, skew, so3_exp

_IJK = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])  # (i, j, k) = (i, i + 1, i + 2) mod 3
# (bytes of x, basis) of the last basis sphere_basis built; one tuple, read and
# replaced whole, so no thread can pair one point's bytes with another's basis
_last = (b"", None)


def sphere_basis(x: np.ndarray) -> np.ndarray:
    """Orthonormal tangent basis B(x), shape (3, 2), with B^T x = 0; read-only.

    The basis is the smallest rotation carrying the axis e_i of x's largest
    component onto n = x/|x|, applied to the two remaining axes e_j, e_k.
    With w = cross(e_i, n) and c = n_i that rotation is
    c I + skew(w) + w w^T / (1 + c).
    The largest component of a unit vector is at least -1/sqrt(3), so
    1 + c >= 1 - 1/sqrt(3) > 0.42 and no x needs a special case.

    B is a pure function of the 24 bytes of x, and a filter step asks for
    the basis of one gravity estimate several times (in the process
    Jacobian, in oplus and at the update's prior), so the last basis built
    is kept with the bytes of its x and returned again for the same bytes.
    """
    global _last
    key = x.tobytes()
    last_key, b = _last
    if key == last_key:
        return b
    n = (x / math.sqrt(x.dot(x))).tolist()  # the sum np.linalg.norm takes
    c = max(n)
    i = n.index(c)  # the first largest, as np.argmax
    j, k = (i + 1) % 3, (i + 2) % 3
    # F-ordered as a column slice of that rotation is, since the BLAS products
    # that take B round differently on a C-ordered copy of the same values,
    # and the filter's records would change
    b = np.empty((3, 2), order="F")
    (b[i, 0], b[j, 0], b[k, 0]), (b[i, 1], b[j, 1], b[k, 1]) = _basis_columns(c, -n[k], n[j])
    b.flags.writeable = False
    _last = key, b
    return b


def _basis_columns(c, wj, wk):
    """Rows i, j, k of columns j, k of c I + skew(w) + w w^T / (1 + c), w_i = 0, each
    entry summed in that order so that even zero signs match; on floats or arrays."""
    d, z = 1.0 + c, c * 0.0  # z off the diagonal of c I
    return (((z - wk) + 0.0 * wj / d, c + wj * wj / d, wk * wj / d + 0.0),
            ((z + wj) + 0.0 * wk / d, z + wj * wk / d, c + wk * wk / d))


def _basis_stack(x: np.ndarray) -> np.ndarray:
    """sphere_basis of each row of a (..., 3) stack, bit for bit but C-ordered
    (BENCH_32.json); row p of a basis is row p - i of its (i, j, k) frame."""
    flat = x.reshape(-1, 3)
    n = flat / np.sqrt(np.vecdot(flat, flat))[:, None]
    i, rows = n.argmax(1), np.arange(len(n))[:, None]
    c, nj, nk = n[rows, _IJK[i]].T
    return np.array(_basis_columns(c, -nk, nj)).T[rows, _IJK[-i]].reshape(x.shape + (2,))


def sphere_boxplus(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Move x along tangent coordinates u (radians): Exp(B(x) u) x."""
    return so3_exp(sphere_basis(x).dot(u)).dot(x)


def sphere_boxminus(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Tangent coordinates (..., 2) at x pointing to y, for (..., 3) stacks
    that broadcast; inverse of sphere_boxplus.

    Undefined at the antipode of x, where every direction is a shortest
    path; that case, in any row, raises CutLocusError.
    """
    x6, y6 = np.concatenate((x, x), axis=-1), np.concatenate((y, y), axis=-1)
    cx = x6[..., 1:4] * y6[..., 2:5] - x6[..., 2:5] * y6[..., 1:4]  # x6[..., k:k + 3]: x rotated by k
    s = np.sqrt(np.vecdot(cx, cx))
    c = np.vecdot(x, y)
    same = s < 1e-9 * np.vecdot(x, x)
    if (same & (c < 0.0)).any():
        raise CutLocusError("points are antipodal; boxminus is undefined")
    w = np.divide(np.arctan2(s, c), s, out=np.zeros(s.shape), where=~same)[..., None] * cx
    return (w[..., None, :] @ _basis_stack(x))[..., 0, :]


def sphere_oplus(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate x by the rotation vector v: Exp(v) x."""
    return so3_exp(v).dot(x)


def sphere_m(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """d(sphere_boxplus(x, u))/du, shape (3, 2)."""
    b = sphere_basis(x)
    w = b.dot(u)
    return (-so3_exp(w)).dot(skew(x)).dot(mat_a(w).T).dot(b)
