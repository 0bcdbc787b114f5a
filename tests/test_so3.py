"""Rotation-group numerics: exp/log and the chart matrix A(u)."""
import mpmath
import numpy as np
import pytest
import scipy.linalg

from manikf.errors import ContractViolationError
from manikf.so3 import (
    cross_rows,
    mat_a,
    skew,
    so3_exp,
    so3_log,
    vee,
)

from helpers import assert_close


def random_rotvec(rng, max_angle=np.pi - 1e-3):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v) * rng.uniform(0.0, max_angle)


def test_skew_vee_roundtrip():
    v = np.array([1.0, -2.0, 3.0])
    k = skew(v)
    assert np.allclose(k, -k.T)
    assert np.allclose(vee(k), v)
    assert np.allclose(k @ np.array([0.5, 0.1, -0.4]), np.cross(v, [0.5, 0.1, -0.4]))


def test_cross_rows_matches_numpy():
    rng = np.random.default_rng(2)
    for m in (1, 10, 200):
        a, b = rng.standard_normal((m, 3)), rng.standard_normal((m, 3))
        assert_close(cross_rows(a, b), np.cross(a, b), tol=1e-15, floor=1e-15)


def test_exp_zero_is_identity():
    assert np.allclose(so3_exp(np.zeros(3)), np.eye(3))


def test_exp_matches_matrix_exponential():
    rng = np.random.default_rng(0)
    for _ in range(100):
        w = random_rotvec(rng)
        assert_close(so3_exp(w), scipy.linalg.expm(skew(w)), tol=1e-9)


def test_exp_quarter_turn():
    r = so3_exp(np.array([np.pi / 2, 0.0, 0.0]))
    assert np.allclose(r, [[1, 0, 0], [0, 0, -1], [0, 1, 0]], atol=1e-12)


def test_exp_pi_about_x():
    assert np.allclose(so3_exp(np.array([np.pi, 0, 0])), np.diag([1.0, -1.0, -1.0]))


def test_log_roundtrip_small():
    w = np.array([0.3, 0.0, 0.0])
    assert np.allclose(so3_log(so3_exp(w)), w, atol=1e-12)


def test_log_roundtrip_random():
    rng = np.random.default_rng(1)
    for _ in range(300):
        w = random_rotvec(rng)
        assert np.allclose(so3_log(so3_exp(w)), w, atol=1e-9)


def test_log_near_pi():
    rng = np.random.default_rng(2)
    for _ in range(200):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        for angle in (np.pi - 1e-5, np.pi - 1e-9, np.pi):
            w = angle * axis
            r = so3_exp(w)
            back = so3_log(r)
            # at exactly pi the sign of the axis is a free choice
            assert min(
                np.linalg.norm(back - w), np.linalg.norm(back + w)
            ) < 1e-6, (angle, axis)
            assert_close(so3_exp(back), r, tol=1e-9)


def test_log_tiny_angles():
    rng = np.random.default_rng(3)
    for _ in range(100):
        w = rng.standard_normal(3) * 1e-6
        assert np.allclose(so3_log(so3_exp(w)), w, atol=1e-15)


def test_log_rejects_non_rotation():
    with pytest.raises(ContractViolationError):
        so3_log(np.eye(3) * 1.1)
    with pytest.raises(ContractViolationError):
        so3_log(np.diag([1.0, 1.0, -1.0]))  # det -1


def test_mat_a_zero():
    assert np.allclose(mat_a(np.zeros(3)), np.eye(3))


def test_mat_a_perturbation_identity():
    # Exp(u + d) ~ Exp(u) (I + skew(A(u)^T d))
    rng = np.random.default_rng(5)
    for _ in range(100):
        u = random_rotvec(rng, max_angle=2.5)
        d = rng.standard_normal(3) * 1e-7
        lhs = so3_exp(u + d)
        rhs = so3_exp(u) @ (np.eye(3) + skew(mat_a(u).T @ d))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_mat_a_series_branch_continuity():
    # series branch (just below the switch) must agree with the closed form
    u = 0.99e-4 * np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0)
    theta = np.linalg.norm(u)
    k = skew(u)
    closed_a = (
        np.eye(3)
        + (1.0 - np.cos(theta)) / theta**2 * k
        + (1.0 - np.sin(theta) / theta) / theta**2 * (k @ k)
    )
    # naive closed form loses ~eps/theta^2 relative accuracy to cancellation,
    # so 1e-12 bounds its own error, not the series'
    assert np.max(np.abs(mat_a(u) - closed_a)) < 1e-12
    closed_exp = scipy.linalg.expm(k)
    assert np.max(np.abs(so3_exp(u) - closed_exp)) < 1e-12


def _mat_a_50_digits(u):
    """A(u) = I + b skew(u) + c skew(u)^2 in 50-digit arithmetic."""
    with mpmath.workdps(50):
        x, y, z = (mpmath.mpf(float(t)) for t in u)
        theta2 = x * x + y * y + z * z
        theta = mpmath.sqrt(theta2)
        b = (1 - mpmath.cos(theta)) / theta2
        c = (theta - mpmath.sin(theta)) / (theta2 * theta)
        k = mpmath.matrix([[0, -z, y], [z, 0, -x], [-y, x, 0]])
        a = mpmath.eye(3) + b * k + c * (k * k)
        return np.array([[float(a[i, j]) for j in range(3)] for i in range(3)])


@pytest.mark.parametrize("theta", [1.01e-4, 2e-4, 1e-2])
def test_mat_a_closed_form_is_accurate_above_switch(theta):
    # b = (1 - cos theta)/theta^2 would cancel to ~1e-16/theta^2 here, and it
    # multiplies skew(u) of size theta: ~5e-13 just above SMALL_ANGLE
    rng = np.random.default_rng(17)
    for _ in range(50):
        v = rng.standard_normal(3)
        u = theta * v / np.linalg.norm(v)
        assert np.max(np.abs(mat_a(u) - _mat_a_50_digits(u))) < 1e-15
