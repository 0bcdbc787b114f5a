"""Tests for the quaternion-parameterized comparison filter."""
import itertools

import numpy as np
import pytest

from manikf.baseline import (
    BREP,
    N_CONSTRAINTS,
    NOISE_DIM,
    STATE_DIM,
    baseline_model,
    from_manifold,
    normalize_state,
    quat_to_rot,
    rot_to_quat,
    _drot_dq,
    _quat_to_rot_stack,
    _xi,
    _xi_stack,
    tangent_cov,
    to_manifold,
)
from manikf.errors import ContractViolationError
from manikf.filter import FilterState, predict
from manikf.lidar_inertial import GRAVITY, STATE_MANIFOLD
from manikf.so3 import skew, so3_exp

from helpers import (
    assert_close,
    fd_jacobian,
    random_li_state,
    random_scan,
)
from manifold_samples import with_norm


def test_quat_to_rot_matches_exponential():
    rng = np.random.default_rng(1)
    for _ in range(50):
        w = rng.standard_normal(3)
        theta = np.linalg.norm(w)
        q = np.concatenate([[np.cos(theta / 2)], np.sin(theta / 2) * w / theta])
        assert_close(quat_to_rot(q), so3_exp(w), tol=1e-12)


def _quat_to_rot_reference(q):
    """The matrix formula quat_to_rot evaluates entry by entry: the bits to keep."""
    w, v = q[0], q[1:]
    return (w * w - v @ v) * np.eye(3) + 2.0 * np.outer(v, v) + 2.0 * w * skew(v)


def _xi_reference(q):
    """The matrix formula _xi evaluates entry by entry: the bits to keep."""
    w, v = q[0], q[1:]
    return np.vstack([-v, w * np.eye(3) + skew(v)])


def _quaternion_sweep():
    """Non-unit and unit quaternions over six decades, w of both signs, each
    component set to exactly +0.0 and -0.0 in turn, and every quaternion
    with entries in {0, -0, 1, -1}."""
    rng = np.random.default_rng(21)
    qs = rng.standard_normal((10000, 4)) * 10.0 ** rng.uniform(-3.0, 3.0, (10000, 1))
    qs[::2] /= np.linalg.norm(qs[::2], axis=1, keepdims=True)
    for i, (k, zero) in enumerate(itertools.product(range(4), (0.0, -0.0))):
        qs[i::16, k] = zero
    assert (qs[:, 0] < 0.0).sum() > 4000
    signs = np.array(list(itertools.product((0.0, -0.0, 1.0, -1.0), repeat=4)))
    return np.concatenate([qs, signs])


def test_quaternion_kernels_match_their_matrix_formulas_bitwise():
    # tobytes tells the signs of zeros apart
    for q in _quaternion_sweep():
        for got, want in ((quat_to_rot(q), _quat_to_rot_reference(q)), (_xi(q), _xi_reference(q))):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), q


def test_stacked_quaternion_kernels_match_the_per_point_ones_bitwise():
    # the record's stacked twins against the per-step kernels, row by row;
    # a stack of one is the same row of a longer stack
    qs = _quaternion_sweep()
    for stacked, kernel in ((_quat_to_rot_stack, quat_to_rot), (_xi_stack, _xi)):
        got = stacked(qs)
        assert got.shape == (len(qs),) + kernel(qs[0]).shape
        for k, q in enumerate(qs):
            assert got[k].tobytes() == kernel(q).tobytes(), q
        for k in (0, 17, len(qs) - 1):
            assert stacked(qs[k:k + 1])[0].tobytes() == got[k].tobytes()
            assert stacked(qs[k]).tobytes() == got[k].tobytes()
        assert stacked(qs[:20].reshape(4, 5, 4)).tobytes() == got[:20].tobytes()
        for size in (11, 101):
            for k in range(0, len(qs) - size, 997):
                assert stacked(qs[k:k + size]).tobytes() == got[k:k + size].tobytes()


def test_drot_dq_is_the_derivative_of_quat_to_rot():
    # central differences on non-unit q, and Euler's identity for the
    # quadratic R(q): sum_k q_k dR/dq_k = 2 R(q)
    rng = np.random.default_rng(23)
    for scale in (1e-2, 1.0, 3.0):
        for _ in range(20):
            q = scale * rng.standard_normal(4)
            dr = _drot_dq(q)
            assert dr.shape == (3, 3, 4)
            jac = fd_jacobian(lambda d: quat_to_rot(q + d).reshape(9), np.zeros(4))
            assert_close(dr.reshape(9, 4), jac, tol=1e-8, floor=1e-12 * scale * scale)
            rot = quat_to_rot(q)
            assert np.max(np.abs(dr @ q - 2.0 * rot)) <= 1e-14 * np.max(np.abs(rot))


def test_rot_to_quat_roundtrip():
    rng = np.random.default_rng(3)
    angles = list(0.01 + 3.1 * rng.random(30))
    angles += [np.pi, np.pi - 1e-8, 3.14159]  # w = cos(angle / 2) near 0
    for ang in angles:
        axis = with_norm(rng, 3)
        r = so3_exp(ang * axis)
        q = rot_to_quat(r)
        assert q[0] >= 0.0
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        assert_close(quat_to_rot(q), r, tol=1e-9, floor=1e-9)
    with pytest.raises(ContractViolationError):  # so3_log checks the rotation
        rot_to_quat(1.1 * np.eye(3))


def test_normalize_state():
    rng = np.random.default_rng(5)
    x = from_manifold(random_li_state(rng))
    x[BREP["q"]] *= 1.3
    x[BREP["q_ext"]] *= 0.4
    x[BREP["g"]] *= 1.05
    out = normalize_state(x)
    assert abs(np.linalg.norm(out[BREP["q"]]) - 1.0) < 1e-12
    assert abs(np.linalg.norm(out[BREP["q_ext"]]) - 1.0) < 1e-12
    assert abs(np.linalg.norm(out[BREP["g"]]) - GRAVITY) < 1e-9
    # directions preserved
    assert_close(out[BREP["q"]] * 1.3, x[BREP["q"]], tol=1e-12)
    bad = x.copy()
    bad[BREP["g"]] = 0.0
    with pytest.raises(FloatingPointError):
        normalize_state(bad)


def test_augmented_rows_and_noise_dim():
    rng = np.random.default_rng(11)
    rows = random_scan(rng, 4)
    x = from_manifold(random_li_state(rng))
    plain = baseline_model(augmented=False)
    aug = baseline_model(augmented=True)
    h_plain = plain.h(x, np.zeros(4), rows)
    h_aug = aug.h(x, np.zeros(4 + N_CONSTRAINTS), rows)
    assert h_plain.shape == (4,) and h_aug.shape == (4 + N_CONSTRAINTS,)
    assert_close(h_aug[:4], h_plain, tol=1e-12)
    # exactly on the constraint sets the extra rows vanish
    assert np.max(np.abs(h_aug[4:])) < 1e-9


def test_quaternion_stays_unit_through_prediction():
    rng = np.random.default_rng(13)
    model = baseline_model()
    x = from_manifold(random_li_state(rng))
    state = FilterState(x, 0.01 * np.eye(STATE_DIM))
    q_noise = 1e-4 * np.eye(NOISE_DIM)
    dt = 0.01
    for _ in range(300):
        u = np.concatenate([rng.standard_normal(3), rng.standard_normal(3)])
        state = predict(model, state, u, dt, q_noise)
        state.x = normalize_state(state.x)
    assert abs(np.linalg.norm(state.x[BREP["q"]]) - 1.0) < 1e-12
    assert abs(np.linalg.norm(state.x[BREP["g"]]) - GRAVITY) < 1e-9


def test_tangent_cov_is_the_boxminus_jacobian():
    # G P G^T against J P J^T, J the central differences of the tangent error
    # to_manifold(x + d) boxminus to_manifold(x); q and -q alike
    rng = np.random.default_rng(17)
    man = STATE_MANIFOLD
    for i in range(20):
        x = from_manifold(random_li_state(rng))
        if i % 2:
            x[BREP["q"]] *= -1.0
            x[BREP["q_ext"]] *= -1.0
        xm = to_manifold(x)
        jac = fd_jacobian(lambda d: man.boxminus(to_manifold(x + d), xm), np.zeros(STATE_DIM))
        a = rng.standard_normal((STATE_DIM, STATE_DIM))
        p = a @ a.T + 1e-3 * np.eye(STATE_DIM)
        assert_close(tangent_cov(x, p), jac @ p @ jac.T, tol=1e-8, floor=1e-15)


def test_tangent_cov_drops_radial_directions():
    rng = np.random.default_rng(19)
    x = from_manifold(random_li_state(rng))
    x[BREP["q_ext"]] *= -1.0
    for key in ("q", "g", "q_ext"):
        d = np.zeros(STATE_DIM)
        d[BREP[key]] = x[BREP[key]]
        # zero up to the rounding of the products, not the size of d d^T
        assert np.max(np.abs(tangent_cov(x, np.outer(d, d)))) < 1e-13 * (d @ d)
