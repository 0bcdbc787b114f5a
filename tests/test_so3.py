"""Rotation-group numerics: exp/log and the chart matrix A(u)."""
import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from manikf.errors import ContractViolationError
from manikf.so3 import (
    ROTATION_TOL,
    SMALL_ANGLE,
    check_rotation,
    cross_rows,
    mat_a,
    skew,
    so3_exp,
    so3_log,
)

from helpers import assert_close
from manifold_samples import ball, with_norm


def test_skew_vee_roundtrip():
    v = np.array([1.0, -2.0, 3.0])
    k = skew(v)
    assert np.allclose(k, -k.T)
    assert np.allclose(k @ np.array([0.5, 0.1, -0.4]), np.cross(v, [0.5, 0.1, -0.4]))


def test_cross_rows_matches_numpy():
    rng = np.random.default_rng(2)
    for m in (1, 10, 200):
        a, b = rng.standard_normal((m, 3)), rng.standard_normal((m, 3))
        assert_close(cross_rows(a, b), np.cross(a, b), tol=1e-15, floor=1e-15)


def test_exp_matches_matrix_exponential():
    rng = np.random.default_rng(0)
    for _ in range(100):
        w = ball(rng, 3, np.pi - 1e-3)
        assert_close(so3_exp(w), scipy.linalg.expm(skew(w)), tol=1e-9)


def test_exp_pi_about_x():
    assert np.allclose(so3_exp(np.array([np.pi, 0, 0])), np.diag([1.0, -1.0, -1.0]))


def test_log_near_pi():
    rng = np.random.default_rng(2)
    for _ in range(200):
        axis = with_norm(rng, 3)
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
    stack = np.array([np.eye(3), so3_exp(np.array([0.1, 0.2, 0.3])), np.eye(3)])
    stack[2, 0, 0] = 1.1
    with pytest.raises(ContractViolationError):  # one bad matrix in a stack
        so3_log(stack)
    for shape in ((9,), (3, 4), (2, 9)):
        with pytest.raises(ContractViolationError):
            so3_log(np.zeros(shape))


def test_mat_a_perturbation_identity():
    # Exp(u + d) ~ Exp(u) (I + skew(A(u)^T d))
    rng = np.random.default_rng(5)
    for _ in range(100):
        u = ball(rng, 3, 2.5)
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
        u = with_norm(rng, 3, theta)
        assert np.max(np.abs(mat_a(u) - _mat_a_50_digits(u))) < 1e-15


# The kernels' earlier formulas, on numpy float64 scalars (np.sqrt, np.sin,
# np.cos, np.linalg.norm, np.trace, the matrix form of the rotation check).
# The kernels now do the same arithmetic on Python floats; libm's sin/cos may
# round differently from numpy's on some platforms, so the comparison allows
# a few ulp of the result's scale instead of asking for equal bits.


def _np_skew(v):
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _np_rodrigues(w, a, b):
    x, y, z = w
    bxy, bxz, byz = b * x * y, b * x * z, b * y * z
    return np.array(
        [
            [1.0 - b * (y * y + z * z), bxy - a * z, bxz + a * y],
            [bxy + a * z, 1.0 - b * (x * x + z * z), byz - a * x],
            [bxz - a * y, byz + a * x, 1.0 - b * (x * x + y * y)],
        ]
    )


def _np_exp(w):
    theta2 = float(w @ w)
    theta = np.sqrt(theta2)
    if theta < SMALL_ANGLE:
        a = 1.0 - theta2 / 6.0 + theta2 * theta2 / 120.0
        b = 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / theta2
    return _np_rodrigues(w, a, b)


def _np_mat_a(u):
    theta2 = float(u @ u)
    theta = np.sqrt(theta2)
    if theta < SMALL_ANGLE:
        b = 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0
        c = 1.0 / 6.0 - theta2 / 120.0 + theta2 * theta2 / 5040.0
    else:
        s = np.sin(0.5 * theta)
        b = 2.0 * s * s / theta2
        c = (1.0 - np.sin(theta) / theta) / theta2
    return _np_rodrigues(u, b, c)


def _np_log(r):
    m = r - r.T
    s_vec = np.array([m[2, 1], m[0, 2], m[1, 0]]) / 2.0
    s = float(np.linalg.norm(s_vec))
    c = (np.trace(r) - 1.0) / 2.0
    theta = np.arctan2(s, c)
    if c <= -1.0 + 1e-6:
        if s > 1e-6:
            return theta * (s_vec / s)
        q = ((r + r.T) / 2.0 + np.eye(3)) / 2.0
        i = int(np.argmax(np.diag(q)))
        axis = q[:, i] / np.sqrt(max(q[i, i], 1e-300))
        axis /= np.linalg.norm(axis)
        if s > 1e-12 and axis @ s_vec < 0.0:
            axis = -axis
        return theta * axis
    if theta < SMALL_ANGLE:
        return s_vec * (1.0 + theta * theta / 6.0)
    return s_vec * (theta / s)


def _np_is_rotation(r):
    err = np.linalg.norm(r.T @ r - np.eye(3))
    return not (err > ROTATION_TOL or abs(np.linalg.det(r) - 1.0) > ROTATION_TOL)


def _kernel_inputs():
    """Random rotation vectors plus every switch point of the kernels."""
    rng = np.random.default_rng(41)
    unit = rng.standard_normal((400, 3))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    angles = [
        *rng.uniform(0.0, np.pi, 100),
        *(10.0 ** rng.uniform(-9.0, 0.0, 100)),
        *(SMALL_ANGLE * (1.0 + f) for f in (-1e-3, -1e-9, 0.0, 1e-9, 1e-3)),
        # so3_log's c <= -1 + 1e-6 branch starts ~1.41e-3 below pi; its
        # s <= 1e-6 sub-branch ~1e-6 below
        *(np.pi - d for d in (1e-1, 1.5e-3, 1.4e-3, 1e-4, 1e-6, 1e-7, 1e-9, 0.0)),
        2.0 * np.pi - 1e-3,
    ]
    return [angle * unit[i % len(unit)] for i, angle in enumerate(angles)] + [np.zeros(3)]


def _assert_ulp_close(got, want, ulps=4):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= ulps * np.spacing(scale), (got, want)


def test_kernels_match_numpy_scalar_formulas():
    for w in _kernel_inputs():
        assert np.array_equal(skew(w), _np_skew(w))
        _assert_ulp_close(so3_exp(w), _np_exp(w))
        _assert_ulp_close(mat_a(w), _np_mat_a(w))


def test_log_of_a_stack_matches_numpy_scalar_formula():
    # every switch point in one stack: each row takes its own branch
    rs = np.array([_np_exp(w) for w in _kernel_inputs()])
    logs = so3_log(rs)
    assert logs.shape == (len(rs), 3)
    for r, got in zip(rs, logs):
        _assert_ulp_close(got, _np_log(r))
        assert np.array_equal(so3_log(r), got)  # one matrix is a stack of one
    assert np.array_equal(so3_log(rs.reshape(-1, 1, 3, 3)), logs[:, None])
    # the stack holds small angles, the near-pi sub-branch (sin theta <= 1e-6) and pi
    theta = np.linalg.norm(logs, axis=1)
    assert np.any(theta < SMALL_ANGLE) and np.any(np.sin(theta) < 1e-7)
    assert np.any(np.pi - theta < 1e-12)


def _rowdot(a, b):
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _log_reference(r):
    """so3_log's stack form before its fixed cost per call was cut (fancy-index
    gathers, a matmul per row dot, the series and the quotient each under
    np.where): the bits to keep."""
    m = r.reshape(r.shape[:-2] + (9,))
    s_vec = (m[..., [7, 2, 3]] - m[..., [5, 6, 1]]) / 2.0
    s = np.sqrt(_rowdot(s_vec, s_vec))[..., None]
    c = ((m[..., 0] + m[..., 4] + m[..., 8] - 1.0) / 2.0)[..., None]
    theta = np.arctan2(s, c)
    out = np.where(theta < SMALL_ANGLE, s_vec * (1.0 + theta * theta / 6.0),
                   s_vec * np.divide(theta, s, out=np.zeros_like(s), where=s > 0.0))
    near_pi = (c <= -1.0 + 1e-6) & (s <= 1e-6)
    if near_pi.any():
        q = ((r + np.swapaxes(r, -1, -2)) / 2.0 + np.eye(3)) / 2.0
        i = np.argmax(np.diagonal(q, axis1=-2, axis2=-1), axis=-1)[..., None, None]
        axis = np.take_along_axis(q, i, axis=-1)[..., 0]
        axis = axis / np.sqrt(_rowdot(axis, axis))[..., None]
        axis = np.where((s > 1e-12) & (_rowdot(axis, s_vec)[..., None] < 0.0), -axis, axis)
        out = np.where(near_pi, theta * axis, out)
    return out


def test_log_matches_its_array_reference_bitwise():
    # every switch point (SMALL_ANGLE, within 1e-6 of pi, pi), and products
    # of rotations as boxminus forms them, in stacks of 1, 11 and 101 rows
    rng = np.random.default_rng(44)
    rs = np.array([so3_exp(w) for w in _kernel_inputs()])
    a = np.array([so3_exp(w) for w in rng.uniform(-4.0, 4.0, (len(rs), 3))])
    rs = np.concatenate([rs, np.swapaxes(a, -1, -2) @ (a @ rs)])
    for stack in (rs, rs[::-1], rs.reshape(-1, 2, 3, 3)):
        assert so3_log(stack).tobytes() == _log_reference(stack).tobytes()
    for size in (1, 11, 101):
        for k in range(0, len(rs) - size, 7):
            assert so3_log(rs[k:k + size]).tobytes() == _log_reference(rs[k:k + size]).tobytes(), k


@settings(max_examples=400, deadline=None)
@given(
    w=st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3),
    kind=st.sampled_from(["noise", "scale", "reflection"]),
    log_size=st.floats(-2.0, 2.0),
    sign=st.sampled_from([-1.0, 1.0]),
    direction=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
)
def test_check_rotation_verdict_matches_matrix_form(w, kind, log_size, sign, direction):
    r = so3_exp(np.array(w))
    size = sign * ROTATION_TOL * 10.0**log_size  # 0.01 to 100 times the tolerance
    if kind == "noise":
        r = r + size * np.reshape(direction, (3, 3))
    elif kind == "scale":
        r = r * (1.0 + size)
    else:
        r = r @ np.diag([1.0, 1.0, -1.0]) + size * np.reshape(direction, (3, 3))
    # the two forms round differently, by ~1e-16: skip draws that close to a threshold
    err = np.linalg.norm(r.T @ r - np.eye(3))
    assume(abs(err - ROTATION_TOL) > 1e-12)
    assume(abs(abs(np.linalg.det(r) - 1.0) - ROTATION_TOL) > 1e-12)
    try:
        check_rotation(r)
        accepted = True
    except ContractViolationError:
        accepted = False
    assert accepted == _np_is_rotation(r)


@pytest.mark.parametrize("shape", [(3,), (9,), (2, 2), (3, 4), (4, 3), (4, 4)])
def test_check_rotation_rejects_non_3x3(shape):
    r = np.zeros(shape)
    r.flat[:: (shape[-1] + 1)] = 1.0
    with pytest.raises(ContractViolationError):
        check_rotation(r)


def test_check_rotation_takes_stacks():
    check_rotation(np.eye(3)[None])  # a stack of one
    rng = np.random.default_rng(43)
    stack = np.array([so3_exp(w) for w in rng.uniform(-3.0, 3.0, (8, 3))]).reshape(2, 4, 3, 3)
    check_rotation(stack)
    for bad in (1.0 + 10.0 * ROTATION_TOL, -1.0):  # a scaled column, a reflection
        one_off = stack.copy()
        one_off[1, 2, :, 0] *= bad
        with pytest.raises(ContractViolationError):
            check_rotation(one_off)
