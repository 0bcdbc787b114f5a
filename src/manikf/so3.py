"""Rotation-group numerics: exponential/logarithm maps and chart Jacobians.

Everything operates on plain numpy arrays: rotation vectors are shape (3,),
rotations are 3x3 matrices. All closed forms switch to Taylor series below
``SMALL_ANGLE`` because they divide by the rotation angle. The scalar
arithmetic runs on Python floats (read with ``tolist``, ``math`` functions),
which round as numpy's float64 scalars do at a fraction of their call cost.
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


def vee(m: np.ndarray) -> np.ndarray:
    """Inverse of skew for an (anti)symmetrized matrix."""
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


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
    """Raise unless r is orthonormal with determinant +1.

    The orthonormality error is the Frobenius norm of r^T r - I, from the
    column inner products; the determinant is the cofactor expansion along
    the first row. A NaN fails neither comparison, as with numpy's norm and det.
    """
    if r.shape != (3, 3):
        raise ContractViolationError(f"rotation must be 3x3, got {r.shape}")
    (a, b, c), (d, e, f), (g, h, i) = r.tolist()
    # entries of r^T r - I: squared column norms less 1, and the column dots
    n0, n1, n2 = (a * a + d * d + g * g - 1.0, b * b + e * e + h * h - 1.0,
                  c * c + f * f + i * i - 1.0)
    d01, d02, d12 = a * b + d * e + g * h, a * c + d * f + g * i, b * c + e * f + h * i
    err = math.sqrt(n0 * n0 + n1 * n1 + n2 * n2 + 2.0 * (d01 * d01 + d02 * d02 + d12 * d12))
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if err > ROTATION_TOL or abs(det - 1.0) > ROTATION_TOL:
        raise ContractViolationError(
            f"matrix is not a rotation (orthonormality error {err:.2e})"
        )


def so3_log(r: np.ndarray) -> np.ndarray:
    """Rotation vector of a rotation matrix, angle in [0, pi].

    Near the angle-pi cut the axis is recovered from the dominant diagonal
    of (R+I)/2, where the generic sin-based formula degenerates. The angle
    stays np.arctan2: math.atan2 rounds differently on some inputs.
    """
    check_rotation(r)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r.tolist()
    # sin(theta) * axis
    s_vec = np.array([(r21 - r12) / 2.0, (r02 - r20) / 2.0, (r10 - r01) / 2.0])
    s = math.sqrt(s_vec.dot(s_vec))  # the sum np.linalg.norm takes
    c = (r00 + r11 + r22 - 1.0) / 2.0  # np.trace's summation order
    theta = float(np.arctan2(s, c))
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
