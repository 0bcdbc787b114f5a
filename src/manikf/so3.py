"""Rotation-group numerics: exponential/logarithm maps and chart Jacobians.

Everything operates on plain numpy arrays: rotation vectors are shape (3,),
rotations are 3x3 matrices. All closed forms switch to Taylor series below
``SMALL_ANGLE`` because they divide by the rotation angle.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractViolationError

SMALL_ANGLE = 1e-4
ROTATION_TOL = 1e-6  # orthonormality and determinant error check_rotation accepts

_I3 = np.eye(3)


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix of a 3-vector: skew(v) @ w == cross(v, w)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a_i x b_i of two (m, 3) arrays; np.cross costs 2-3x more."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return np.column_stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def vee(m: np.ndarray) -> np.ndarray:
    """Inverse of skew for an (anti)symmetrized matrix."""
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def _rodrigues(w: np.ndarray, a: float, b: float) -> np.ndarray:
    """I + a*skew(w) + b*skew(w)^2 without forming the skew matrices."""
    x, y, z = w
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
    theta2 = float(w @ w)
    theta = np.sqrt(theta2)
    if theta < SMALL_ANGLE:
        a = 1.0 - theta2 / 6.0 + theta2 * theta2 / 120.0
        b = 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / theta2
    return _rodrigues(w, a, b)


def check_rotation(r: np.ndarray) -> None:
    """Raise unless r is orthonormal with determinant +1."""
    if r.shape != (3, 3):
        raise ContractViolationError(f"rotation must be 3x3, got {r.shape}")
    err = np.linalg.norm(r.T @ r - _I3)
    if err > ROTATION_TOL or abs(np.linalg.det(r) - 1.0) > ROTATION_TOL:
        raise ContractViolationError(
            f"matrix is not a rotation (orthonormality error {err:.2e})"
        )


def so3_log(r: np.ndarray) -> np.ndarray:
    """Rotation vector of a rotation matrix, angle in [0, pi].

    Near the angle-pi cut the axis is recovered from the dominant diagonal
    of (R+I)/2, where the generic sin-based formula degenerates.
    """
    check_rotation(r)
    s_vec = vee(r - r.T) / 2.0  # sin(theta) * axis
    s = float(np.linalg.norm(s_vec))
    c = (np.trace(r) - 1.0) / 2.0
    theta = np.arctan2(s, c)
    if c <= -1.0 + 1e-6:
        if s > 1e-6:
            # sin(theta) still carries the axis accurately here
            return theta * (s_vec / s)
        # angle at/near pi: symmetrizing (R+I)/2 leaves axis axis^T + O((pi-theta)^2)
        q = ((r + r.T) / 2.0 + _I3) / 2.0
        i = int(np.argmax(np.diag(q)))
        axis = q[:, i] / np.sqrt(max(q[i, i], 1e-300))
        axis /= np.linalg.norm(axis)
        if s > 1e-12 and axis @ s_vec < 0.0:
            axis = -axis
        return theta * axis
    if theta < SMALL_ANGLE:
        return s_vec * (1.0 + theta * theta / 6.0)
    return s_vec * (theta / s)


def mat_a(u: np.ndarray) -> np.ndarray:
    """Chart Jacobian A(u) of the exponential map.

    Satisfies Exp(u + d) = Exp(u) (I + skew(A(u)^T d)) to first order.
    """
    theta2 = float(u @ u)
    theta = np.sqrt(theta2)
    if theta < SMALL_ANGLE:
        b = 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0
        c = 1.0 / 6.0 - theta2 / 120.0 + theta2 * theta2 / 5040.0
    else:
        # 1 - cos(theta) cancels for small theta, and b scales skew(u) ~ theta
        s = np.sin(0.5 * theta)
        b = 2.0 * s * s / theta2
        c = (1.0 - np.sin(theta) / theta) / theta2
    return _rodrigues(u, b, c)
