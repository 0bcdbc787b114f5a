"""Tests for the quaternion-parameterized comparison filter."""
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
    tangent_cov,
    to_manifold,
)
from manikf.filter import FilterState, predict
from manikf.lidar_inertial import GRAVITY, scan_rows, state_manifold
from manikf.so3 import so3_exp

from helpers import (
    assert_additive_noise,
    assert_close,
    fd_jacobian,
    random_features,
    random_li_state,
)
from manifold_samples import with_norm


def test_quat_to_rot_matches_exponential():
    rng = np.random.default_rng(1)
    for _ in range(50):
        w = rng.standard_normal(3)
        theta = np.linalg.norm(w)
        q = np.concatenate([[np.cos(theta / 2)], np.sin(theta / 2) * w / theta])
        assert_close(quat_to_rot(q), so3_exp(w), tol=1e-12)


def test_rot_to_quat_roundtrip():
    rng = np.random.default_rng(3)
    angles = list(0.01 + 3.1 * rng.random(30))
    angles += [np.pi, np.pi - 1e-8, 3.14159]  # exercises the small-w branch
    for ang in angles:
        axis = with_norm(rng, 3)
        r = so3_exp(ang * axis)
        q = rot_to_quat(r)
        assert q[0] >= 0.0
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        assert_close(quat_to_rot(q), r, tol=1e-9, floor=1e-9)


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


def test_process_jacobians_match_fd():
    rng = np.random.default_rng(7)
    model = baseline_model()
    for _ in range(20):
        x = from_manifold(random_li_state(rng))
        u = np.concatenate([rng.standard_normal(3), 0.5 * rng.standard_normal(3)])
        fx = lambda e: np.asarray(model.f(x + e, u, np.zeros(NOISE_DIM)))
        fw = lambda w: np.asarray(model.f(x, u, w))
        assert_close(model.df_dx(x, u), fd_jacobian(fx, np.zeros(STATE_DIM)),
                     tol=1e-5, floor=1e-7)
        assert_close(model.df_dw(x, u), fd_jacobian(fw, np.zeros(NOISE_DIM)),
                     tol=1e-5, floor=1e-7)


@pytest.mark.parametrize("augmented", [False, True])
def test_measurement_jacobians_match_fd(augmented):
    rng = np.random.default_rng(9)
    model = baseline_model(augmented=augmented)
    for n_plane, n_edge in ((6, 0), (2, 2)):
        for _ in range(5):
            x = from_manifold(random_li_state(rng))
            # perturb off the constraint sets: Jacobians must hold there too
            x[BREP["q"]] *= 1.02
            x[BREP["g"]] *= 0.99
            rows = scan_rows(random_features(rng, n_plane, n_edge))
            nv = len(rows.g) + (N_CONSTRAINTS if augmented else 0)
            hx = lambda e: np.asarray(model.h(x + e, np.zeros(nv), rows))
            assert_close(model.dh_dx(x, rows),
                         fd_jacobian(hx, np.zeros(STATE_DIM)),
                         tol=1e-5, floor=1e-7)
            assert_additive_noise(model.h, x, rows, nv)


def test_augmented_rows_and_noise_dim():
    rng = np.random.default_rng(11)
    rows = scan_rows(random_features(rng, 4))
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
    man = state_manifold()
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
