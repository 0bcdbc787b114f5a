"""Rotation-group numerics: exponential/logarithm maps and chart Jacobians.

Everything operates on plain numpy arrays: rotation vectors are shape (3,),
rotations 3x3 matrices; ``so3_log`` and ``check_rotation`` also take
(..., 3, 3) stacks. All closed forms switch to Taylor series below
``SMALL_ANGLE``, as they divide by the angle. The per-step kernels run on
Python floats (``tolist``, ``math``), which round as numpy's float64 scalars
do at a fraction of their call cost.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError

SMALL_ANGLE = 1e-4
ROTATION_TOL = 1e-6  # orthonormality and determinant error check_rotation accepts

_I3 = np.eye(3)


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix of a 3-vector: skew(v) @ w == cross(v, w)."""
    x, y, z = v.tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a_i x b_i of two (m, 3) arrays; np.cross costs 2-3x more."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return np.column_stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _rodrigues(w: np.ndarray, a: float, b: float) -> np.ndarray:
    """I + a*skew(w) + b*skew(w)^2 without forming the skew matrices."""
    x, y, z = w.tolist()
    bxy, bxz, byz = b * x * y, b * x * z, b * y * z
    return np.array(
        [
            [1.0 - b * (y * y + z * z), bxy - a * z, bxz + a * y],
            [bxy + a * z, 1.0 - b * (x * x + z * z), byz - a * x],
            [bxz - a * y, byz + a * x, 1.0 - b * (x * x + y * y)],
        ]
    )


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

    The orthonormality error is the Frobenius norm of r^T r - I. A NaN entry
    makes both errors NaN, which fails neither comparison and passes.
    """
    if r.shape[-2:] != (3, 3):
        raise ContractViolationError(f"rotations must be (..., 3, 3), got {r.shape}")
    err = np.linalg.norm(np.swapaxes(r, -1, -2) @ r - _I3, axis=(-2, -1))
    if np.any(err > ROTATION_TOL) or np.any(np.abs(np.linalg.det(r) - 1.0) > ROTATION_TOL):
        raise ContractViolationError(
            f"matrix is not a rotation (orthonormality error {np.max(err):.2e})"
        )


def dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i . b_i over the last axis, each summed as ndarray.dot sums (BLAS ddot)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def so3_log(r: np.ndarray) -> np.ndarray:
    """Rotation vectors, shape (..., 3), of a (..., 3, 3) stack of rotation
    matrices, angles in [0, pi]; one matrix is a stack of one.

    Near the angle-pi cut the generic sin-based formula degenerates, and the
    axis is the dominant column of (R+R^T+2I)/4 = axis axis^T + O((pi-theta)^2),
    taken only when some matrix needs it; each matrix takes its own branch.
    """
    check_rotation(r)
    m = r.reshape(r.shape[:-2] + (9,))  # row-major: r_ij is m[3 i + j]
    s_vec = (m[..., [7, 2, 3]] - m[..., [5, 6, 1]]) / 2.0  # sin(theta) * axis
    s = np.sqrt(dot_rows(s_vec, s_vec))[..., None]
    c = ((m[..., 0] + m[..., 4] + m[..., 8] - 1.0) / 2.0)[..., None]  # np.trace's order
    theta = np.arctan2(s, c)
    out = np.where(theta < SMALL_ANGLE, s_vec * (1.0 + theta * theta / 6.0),
                   s_vec * np.divide(theta, s, out=np.zeros_like(s), where=s > 0.0))
    near_pi = (c <= -1.0 + 1e-6) & (s <= 1e-6)  # where s no longer carries the axis
    if near_pi.any():
        q = ((r + np.swapaxes(r, -1, -2)) / 2.0 + _I3) / 2.0
        i = np.argmax(np.diagonal(q, axis1=-2, axis2=-1), axis=-1)[..., None, None]
        axis = np.take_along_axis(q, i, axis=-1)[..., 0]  # the column q[:, i]
        axis = axis / np.sqrt(dot_rows(axis, axis))[..., None]
        axis = np.where((s > 1e-12) & (dot_rows(axis, s_vec)[..., None] < 0.0), -axis, axis)
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
