"""Rotation-group numerics: exponential/logarithm maps and chart Jacobians.

Everything operates on plain numpy arrays: rotation vectors are shape (3,),
rotations 3x3 matrices; ``so3_log`` and ``check_rotation`` also take
(..., 3, 3) stacks. All closed forms switch to Taylor series below
``SMALL_ANGLE``, as they divide by the angle. The per-step kernels run on
Python floats (``tolist``, ``math``), which round as numpy's float64 scalars
do at a fraction of their call cost, and build their small matrices from a
flat list. Across the package a product of 1-D or 2-D operands is taken by
``ndarray.dot``, which calls the same BLAS routine as ``@`` with less
dispatch and gives the same bits; a product of (..., m, n) stacks keeps
``@``, since ``dot`` pairs the axes of stacks differently, and the row-wise
dot products of (..., n) stacks are ``np.vecdot``, which sums each row with
the same BLAS ddot as ``ndarray.dot``.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError

SMALL_ANGLE = 1e-4
ROTATION_TOL = 1e-6  # orthonormality and determinant error check_rotation accepts

_I3 = np.eye(3)
_SKEW = np.array([7, 2, 3])  # entries 21, 02, 10 of a flat 3x3: r - r^T holds 2 sin(theta) axis there


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix of a 3-vector: skew(v) @ w == cross(v, w)."""
    x, y, z = v.tolist()
    return np.array([0.0, -z, y, z, 0.0, -x, -y, x, 0.0]).reshape(3, 3)


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a_i x b_i of two (m, 3) arrays; np.cross costs 2-3x more."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]).T


def _rodrigues(w: np.ndarray, a: float, b: float) -> np.ndarray:
    """I + a*skew(w) + b*skew(w)^2 without forming the skew matrices."""
    x, y, z = w.tolist()
    bxy, bxz, byz = b * x * y, b * x * z, b * y * z
    return np.array([1.0 - b * (y * y + z * z), bxy - a * z, bxz + a * y,
                     bxy + a * z, 1.0 - b * (x * x + z * z), byz - a * x,
                     bxz - a * y, byz + a * x, 1.0 - b * (x * x + y * y)]).reshape(3, 3)


def so3_exp(w: np.ndarray) -> np.ndarray:
    """Rodrigues formula: rotation matrix for rotation vector w."""
    theta2 = float(w.dot(w))
    theta = math.sqrt(theta2)
    if theta < SMALL_ANGLE:
        a = 1.0 - theta2 / 6.0 + theta2 * theta2 / 120.0
        b = 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta2
    return _rodrigues(w, a, b)


def check_rotation(r: np.ndarray) -> None:
    """Raise unless every matrix of the (..., 3, 3) stack r is orthonormal
    with determinant +1; one matrix is a stack of one.

    The orthonormality error is the Frobenius norm of r r^T - I (that of
    r^T r - I), and the determinant the triple product r_0 . (r_1 x r_2) of
    the rows. Where the first is within ROTATION_TOL, |det| is within
    sqrt(3)/2 ROTATION_TOL of 1, so |det - 1| > ROTATION_TOL exactly where
    det < 0. A NaN entry makes both NaN, which fails neither comparison and
    passes; an infinite entry raises.
    """
    if r.shape[-2:] != (3, 3):
        raise ContractViolationError(f"rotations must be (..., 3, 3), got {r.shape}")
    e = (r @ r.swapaxes(-1, -2) - _I3).reshape(r.shape[:-2] + (9,))
    err2 = np.vecdot(e, e)
    r6 = np.concatenate((r, r), axis=-1)  # r6[..., k:k + 3] is each row rotated left by k
    det = np.vecdot(r[..., 0, :], r6[..., 1, 1:4] * r6[..., 2, 2:5] - r6[..., 1, 2:5] * r6[..., 2, 1:4])
    if ((err2 > ROTATION_TOL**2) | (det < 0.0)).any() or np.isinf(r).any():
        raise ContractViolationError(
            f"matrix is not a rotation (orthonormality error {np.sqrt(np.max(err2)):.2e})"
        )


def so3_log(r: np.ndarray) -> np.ndarray:
    """Rotation vectors, shape (..., 3), of a (..., 3, 3) stack of rotation
    matrices, angles in [0, pi]; one matrix is a stack of one.

    Near the angle-pi cut the generic sin-based formula degenerates, and the
    axis is the dominant column of (R+R^T+2I)/4 = axis axis^T + O((pi-theta)^2),
    taken only when some matrix needs it; each matrix takes its own branch.
    """
    check_rotation(r)
    m = r.reshape(r.shape[:-2] + (9,))  # row-major: r_ij is m[3 i + j]
    s_vec = (r - np.swapaxes(r, -1, -2)).reshape(m.shape)[..., _SKEW] / 2.0  # sin(theta) * axis
    s = np.sqrt(np.vecdot(s_vec, s_vec))[..., None]
    c = (m[..., 0:1] + m[..., 4:5] + m[..., 8:9] - 1.0) / 2.0  # np.trace's order
    theta = np.arctan2(s, c)
    k = np.divide(theta, s, out=np.zeros(s.shape), where=s > 0.0)
    if (small := theta < SMALL_ANGLE).any():
        k = np.where(small, 1.0 + theta * theta / 6.0, k)
    out = s_vec * k
    near_pi = c <= -1.0 + 1e-6
    if near_pi.any():
        near_pi &= s <= 1e-6  # where s no longer carries the axis
        q = ((r + np.swapaxes(r, -1, -2)) / 2.0 + _I3) / 2.0
        i = np.argmax(np.diagonal(q, axis1=-2, axis2=-1), axis=-1)[..., None, None]
        axis = np.take_along_axis(q, i, axis=-1)[..., 0]  # the column q[:, i]
        axis = axis / np.sqrt(np.vecdot(axis, axis))[..., None]
        axis = np.where((s > 1e-12) & (np.vecdot(axis, s_vec)[..., None] < 0.0), -axis, axis)
        out = np.where(near_pi, theta * axis, out)
    return out


def mat_a(u: np.ndarray) -> np.ndarray:
    """Chart Jacobian A(u) of the exponential map.

    Satisfies Exp(u + d) = Exp(u) (I + skew(A(u)^T d)) to first order.
    """
    theta2 = float(u.dot(u))
    theta = math.sqrt(theta2)
    if theta < SMALL_ANGLE:
        b = 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0
        c = 1.0 / 6.0 - theta2 / 120.0 + theta2 * theta2 / 5040.0
    else:
        # 1 - cos(theta) cancels for small theta, and b scales skew(u) ~ theta
        s = math.sin(0.5 * theta)
        b = 2.0 * s * s / theta2
        c = (1.0 - math.sin(theta) / theta) / theta2
    return _rodrigues(u, b, c)
