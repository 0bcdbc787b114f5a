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
from manikf.lidar_inertial import GRAVITY, PlaneFeature, make_state, scan_rows, state_manifold
from manikf.so3 import so3_exp

from helpers import assert_close, fd_jacobian


def _random_quat(rng, unit=True):
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q) if unit else q


def _random_state(rng):
    g = rng.standard_normal(3)
    g = GRAVITY * g / np.linalg.norm(g)
    return from_manifold(make_state(
        p=rng.standard_normal(3),
        v=rng.standard_normal(3),
        R=so3_exp(rng.standard_normal(3)),
        ba=0.05 * rng.standard_normal(3),
        bw=0.01 * rng.standard_normal(3),
        g=g,
        R_ext=so3_exp(0.3 * rng.standard_normal(3)),
        p_ext=0.2 * rng.standard_normal(3),
    ))


def _random_features(rng, n_plane, n_edge=0):
    feats = []
    for kind, count in (("plane", n_plane), ("edge", n_edge)):
        for _ in range(count):
            u = rng.standard_normal(3)
            feats.append(PlaneFeature(
                p_f=2.0 * rng.standard_normal(3),
                u_dir=u / np.linalg.norm(u),
                q=3.0 * rng.standard_normal(3),
                kind=kind,
            ))
    return feats


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
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        r = so3_exp(ang * axis)
        q = rot_to_quat(r)
        assert q[0] >= 0.0
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        assert_close(quat_to_rot(q), r, tol=1e-9, floor=1e-9)


def test_normalize_state():
    rng = np.random.default_rng(5)
    x = _random_state(rng)
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
        x = _random_state(rng)
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
            x = _random_state(rng)
            # perturb off the constraint sets: Jacobians must hold there too
            x[BREP["q"]] *= 1.02
            x[BREP["g"]] *= 0.99
            rows = scan_rows(_random_features(rng, n_plane, n_edge))
            nv = len(rows.g) + (N_CONSTRAINTS if augmented else 0)
            hx = lambda e: np.asarray(model.h(x + e, np.zeros(nv), rows))
            hv = lambda v: np.asarray(model.h(x, v, rows))
            assert_close(model.dh_dx(x, rows),
                         fd_jacobian(hx, np.zeros(STATE_DIM)),
                         tol=1e-5, floor=1e-7)
            assert_close(model.dh_dv(x, rows),
                         fd_jacobian(hv, np.zeros(nv)),
                         tol=1e-5, floor=1e-7)


def test_augmented_rows_and_noise_dim():
    rng = np.random.default_rng(11)
    rows = scan_rows(_random_features(rng, 4))
    x = _random_state(rng)
    plain = baseline_model(augmented=False)
    aug = baseline_model(augmented=True)
    assert plain.dh_dv(x, rows).shape == (4, 4)
    assert aug.dh_dv(x, rows).shape == (4 + N_CONSTRAINTS, 4 + N_CONSTRAINTS)
    h_plain = plain.h(x, np.zeros(4), rows)
    h_aug = aug.h(x, np.zeros(4 + N_CONSTRAINTS), rows)
    assert_close(h_aug[:4], h_plain, tol=1e-12)
    # exactly on the constraint sets the extra rows vanish
    assert np.max(np.abs(h_aug[4:])) < 1e-9


def test_quaternion_stays_unit_through_prediction():
    rng = np.random.default_rng(13)
    model = baseline_model()
    x = _random_state(rng)
    state = FilterState(x, 0.01 * np.eye(STATE_DIM))
    q_noise = 1e-4 * np.eye(NOISE_DIM)
    dt = 0.01
    for _ in range(300):
        u = np.concatenate([rng.standard_normal(3), rng.standard_normal(3)])
        state = predict(model, state, u, dt, q_noise)
        state.x = normalize_state(state.x)
    assert abs(np.linalg.norm(state.x[BREP["q"]]) - 1.0) < 1e-12
    assert abs(np.linalg.norm(state.x[BREP["g"]]) - GRAVITY) < 1e-9


def test_feature_paths_agree():
    # appending an edge must leave the plane rows unchanged
    rng = np.random.default_rng(15)
    model = baseline_model(augmented=True)
    x = _random_state(rng)
    planes = _random_features(rng, 5)
    rows_m = scan_rows(planes + _random_features(rng, 0, 1))
    rows_p = scan_rows(planes)
    nv_m, nv_p = (len(r.g) + N_CONSTRAINTS for r in (rows_m, rows_p))
    h_m = model.h(x, np.zeros(nv_m), rows_m)
    h_p = model.h(x, np.zeros(nv_p), rows_p)
    assert_close(h_m[:5], h_p[:5], tol=1e-12)
    assert_close(model.dh_dx(x, rows_m)[:5], model.dh_dx(x, rows_p)[:5],
                 tol=1e-12, floor=1e-14)


def test_tangent_cov_is_the_boxminus_jacobian():
    # G P G^T against J P J^T, J the central differences of the tangent error
    # to_manifold(x + d) boxminus to_manifold(x); q and -q alike
    rng = np.random.default_rng(17)
    man = state_manifold()
    for i in range(20):
        x = _random_state(rng)
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
    x = _random_state(rng)
    x[BREP["q_ext"]] *= -1.0
    for key in ("q", "g", "q_ext"):
        d = np.zeros(STATE_DIM)
        d[BREP[key]] = x[BREP[key]]
        # zero up to the rounding of the products, not the size of d d^T
        assert np.max(np.abs(tangent_cov(x, np.outer(d, d)))) < 1e-13 * (d @ d)
