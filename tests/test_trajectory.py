"""Tests for the synthetic scenario generator."""
import dataclasses

import numpy as np
import pytest

from manikf.errors import ContractViolationError
from manikf.harness import _init_state, run_trial, trial_csv_rows
from manikf.lidar_inertial import (
    GRAVITY,
    NOISE_DIM,
    REP,
    STATE_MANIFOLD,
    lidar_inertial_model,
    make_state,
)
from manikf.so3 import so3_exp
from manikf.trajectory import (
    SCENARIOS,
    TRUE_EXT_POS,
    TRUE_EXT_ROT,
    ScenarioConfig,
    _make_planes,
    _plane_bases,
    generate_trajectory,
)

from helpers import assert_close
from manifold_samples import with_norm


def _quiet(cfg):
    return dataclasses.replace(
        cfg, sigma_a=0.0, sigma_w=0.0, sigma_ba=0.0, sigma_bw=0.0, sigma_feature=0.0
    )


def test_config_validation():
    ScenarioConfig().validate()
    for bad in (
        {"scenario": "spiral"},
        {"dt": 0.0},
        {"duration": 0.001, "dt": 0.01},
        {"sigma_a": -1.0},
        {"filter": "ukf"},
        {"baseline_mode": "soft"},
        {"init_sigma": (0.1, 0.1)},
        {"points_per_update": 0},
        {"points_per_update": -3},
        {"n_planes": 0},
        {"nmax": -1},
        # non-finite values pass every sign and range check by themselves
        {"sigma_a": float("nan")},
        {"sigma_feature": float("inf")},
        {"duration": float("inf")},
        {"dt": float("nan")},
        {"peak_rate": float("nan")},
        {"peak_rate": -float("inf")},
        {"init_sigma": (0.1,) * 7 + (float("nan"),)},
        {"init_sigma": (float("inf"),) * 8},
        # init_cov squares the entries, so a negative one would run as positive
        {"init_sigma": (-0.1,) * 8},
        {"init_sigma": (0.1,) * 7 + (-1e-9,)},
        # a negative seed cannot seed the trial's random streams
        {"seed": -1},
    ):
        with pytest.raises(ContractViolationError):
            dataclasses.replace(ScenarioConfig(), **bad).validate()


def test_config_derived_quantities():
    cfg = ScenarioConfig(duration=2.0, dt=0.01)
    assert cfg.n_steps == 200
    q = cfg.process_noise()
    assert q.shape == (12, 12)
    assert_close(np.diag(q)[:3], np.full(3, cfg.sigma_a**2 / cfg.dt), tol=1e-15)
    p0 = cfg.init_cov()
    assert p0.shape == (23, 23)
    assert np.all(np.diag(p0) > 0.0)


def test_seed_and_trial_streams_are_independent():
    # seed 1 trial 0 must not replay seed 0 trial 1, in the trajectory or in
    # the initial-state draw, nor seed 1 trial 1
    one, zero = ScenarioConfig(seed=1, duration=0.1), ScenarioConfig(seed=0, duration=0.1)
    traj = generate_trajectory(one, trial=0)
    assert not np.array_equal(traj.imu, generate_trajectory(zero, trial=1).imu)
    assert not np.array_equal(traj.imu, generate_trajectory(one, trial=1).imu)
    x_one, _ = _init_state(traj.truth[0], one, 0)
    x_zero, _ = _init_state(traj.truth[0], zero, 1)
    assert not np.array_equal(x_one, x_zero)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_zero_noise_truth_matches_model_recursion(scenario):
    # with all noise off, feeding the recorded IMU through the filter's own
    # process recursion must reproduce the stored truth
    cfg = _quiet(ScenarioConfig(scenario=scenario, duration=1.0, dt=0.01))
    traj = generate_trajectory(cfg)
    man = STATE_MANIFOLD
    model = lidar_inertial_model()
    # the filter's v + dt (R (R^T (a - g)) + g) rounds differently from the
    # generator's v + dt a, except at rest, where every term is exact
    tol = 0.0 if scenario == "static" else 1e-12
    x = traj.truth[0].copy()
    for k in range(traj.imu.shape[0]):
        dx = cfg.dt * model.f(x, traj.imu[k], np.zeros(NOISE_DIM))
        x = man.oplus(x, dx)
        assert np.max(np.abs(x - traj.truth[k + 1])) <= tol


def test_fast_rotation_hits_peak_rate():
    cfg = _quiet(ScenarioConfig(scenario="fast-rotation", duration=2.0,
                                peak_rate=6.0))
    traj = generate_trajectory(cfg)
    rates = np.linalg.norm(traj.imu[:, 3:], axis=1)
    assert np.max(np.abs(rates - 6.0)) < 0.01 * 6.0
    # that is comfortably above 300 deg/s
    assert np.degrees(np.min(rates)) > 300.0


def test_static_scenario_is_still():
    cfg = _quiet(ScenarioConfig(scenario="static", duration=1.0))
    traj = generate_trajectory(cfg)
    assert np.max(np.abs(traj.truth[:, REP["p"]])) < 1e-12
    assert np.max(np.abs(traj.truth[:, REP["v"]])) < 1e-12
    assert np.max(np.abs(traj.imu[:, 3:])) < 1e-12


def test_noiseless_features_lie_on_their_planes():
    cfg = _quiet(ScenarioConfig(scenario="circle", duration=0.5))
    traj = generate_trajectory(cfg)
    for k, feats in enumerate(traj.features):
        x = traj.truth[k + 1]
        rot = x[REP["R"]].reshape(3, 3)
        r_ext = x[REP["R_ext"]].reshape(3, 3)
        for ft in feats:
            g_pt = rot @ (r_ext @ ft.p_f + x[REP["p_ext"]]) + x[REP["p"]]
            assert abs(ft.u_dir @ (g_pt - ft.q)) < 1e-9


def test_plane_bases_are_right_handed_orthonormal():
    rng = np.random.default_rng(5)
    s2, s3 = np.sqrt(0.5), np.sqrt(1.0 / 3.0)
    normals = np.array(
        # on an axis, so two zero components tie for the smallest
        [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
        # other ties for the smallest |component|
        + [[s3, s3, s3], [-s3, s3, -s3], [0.3, -0.3, np.sqrt(0.82)]]
        # in a coordinate plane, then in general position
        + [[s2, s2, 0.0], [0.0, -s2, s2], [0.6, 0.0, -0.8]]
        + [[2.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0, -2.0 / 3.0]]
        + [with_norm(rng, 3) for _ in range(50)]
    )
    bases = _plane_bases(normals)
    assert bases.shape == (len(normals), 3, 2)
    for n, b in zip(normals, bases):
        assert np.max(np.abs(b.T @ b - np.eye(2))) < 4e-15
        assert np.max(np.abs(b.T @ n)) < 1e-15
        assert abs(np.linalg.det(np.column_stack([n, b])) - 1.0) < 4e-15


def _plane_basis_reference(n):
    """One plane at a time, with the 1-D np.linalg.norm: the bits to keep."""
    a = np.zeros(3)
    a[int(np.argmin(np.abs(n)))] = 1.0
    b1 = np.cross(n, a)
    b1 /= np.linalg.norm(b1)
    return np.column_stack([b1, np.cross(n, b1)])


def test_plane_bases_match_the_per_plane_loop_bitwise():
    # a batched row norm (norm(axis=1), einsum) rounds about one row in ten
    # differently, which would redraw every generated scan point
    rng = np.random.default_rng(6)
    normals = rng.standard_normal((2000, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    normals[:4] = [[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.6, 0.0, 0.8], [np.sqrt(1.0 / 3.0)] * 3]
    for n, b in zip(normals, _plane_bases(normals)):
        assert np.array_equal(b, _plane_basis_reference(n))


def _motion_profiles_reference(cfg):
    """v_d(t) and w(t) at one time t, as the per-step generator took them."""
    if cfg.scenario == "static":
        return (lambda t: np.zeros(3)), (lambda t: np.zeros(3))
    if cfg.scenario == "circle":
        return (lambda t: 1.0 * np.array([np.cos(0.5 * t), np.sin(0.5 * t), 0.0]),
                lambda t: np.array([0.0, 0.0, 0.5]))
    scale = cfg.peak_rate / np.sqrt(1.0 + 0.5 * 0.5)
    return (lambda t: 0.3 * np.array([np.sin(t), np.cos(t), 0.2 * np.sin(0.5 * t)]),
            lambda t: scale * np.array([np.cos(1.5 * t), np.sin(1.5 * t), 0.5]))


def _generate_reference(cfg, trial=0):
    """One step at a time, each scan drawn and observed as the step ends:
    the bits to keep. Returns times, truth, imu and per step (p_f, q, g)."""
    rng = np.random.default_rng([int(cfg.seed), trial])
    k_steps, dt = cfg.n_steps, cfg.dt
    v_d, rate = _motion_profiles_reference(cfg)
    g_true = np.array([0.0, 0.0, -GRAVITY])
    r_ext = so3_exp(np.array(TRUE_EXT_ROT))
    p_ext = np.array(TRUE_EXT_POS)
    anchors, bases, normals = _make_planes(cfg, rng)
    sq = np.sqrt(1.0 / dt)
    n_a = cfg.sigma_a * sq * rng.standard_normal((k_steps, 3))
    n_w = cfg.sigma_w * sq * rng.standard_normal((k_steps, 3))
    n_ba = cfg.sigma_ba * sq * rng.standard_normal((k_steps, 3))
    n_bw = cfg.sigma_bw * sq * rng.standard_normal((k_steps, 3))
    imu, scans = np.zeros((k_steps, 6)), []
    times = dt * np.arange(k_steps + 1)
    p, v, rot, ba, bw = np.zeros(3), v_d(0.0), np.eye(3), np.zeros(3), np.zeros(3)
    truth = [make_state(p, v, rot, ba, bw, g_true, r_ext, p_ext)]
    for k in range(k_steps):
        t = times[k]
        w_true = rate(t)
        a_global = (v_d(t + dt) - v_d(t)) / dt
        imu[k, :3] = rot.T @ (a_global - g_true) + ba + n_a[k]
        imu[k, 3:] = w_true + bw + n_w[k]
        p = p + dt * v
        v = v + dt * a_global
        rot = rot @ so3_exp(dt * w_true)
        ba = ba + dt * n_ba[k]
        bw = bw + dt * n_bw[k]
        truth.append(make_state(p, v, rot, ba, bw, g_true, r_ext, p_ext))
        idx = rng.integers(0, cfg.n_planes, size=cfg.points_per_update)
        coeff = rng.uniform(-5.0, 5.0, size=(cfg.points_per_update, 2))
        g_pts = anchors[idx] + np.einsum("kij,kj->ki", bases[idx], coeff)
        p_lidar = ((g_pts - p) @ rot - p_ext) @ r_ext
        noisy = p_lidar + cfg.sigma_feature * rng.standard_normal((cfg.points_per_update, 3))
        scans.append((noisy, anchors[idx], normals[idx]))
    return times, np.array(truth), imu, scans


@pytest.mark.parametrize("settings", [
    dict(scenario="static"),
    dict(scenario="circle"),
    dict(scenario="fast-rotation"),
    dict(scenario="circle", duration=0.01),  # one step
    dict(scenario="circle", points_per_update=1),
    dict(scenario="fast-rotation", n_planes=1),
    dict(scenario="circle", sigma_feature=0.0),
    dict(scenario="fast-rotation", dt=0.013, duration=0.39, peak_rate=9.5),
], ids=lambda s: "-".join(f"{k}={v}" for k, v in s.items()))
def test_generation_matches_the_per_step_loop_bitwise(settings):
    # the whole-array generator draws per step in the loop's order and sums in
    # its order, so the trajectory and every scan row keep their bits
    cfg = ScenarioConfig(**{"seed": 7, "duration": 0.5, **settings})
    traj = generate_trajectory(cfg, trial=2)
    times, truth, imu, scans = _generate_reference(cfg, trial=2)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.truth, truth)
    assert np.array_equal(traj.imu, imu)
    assert len(traj.features) == len(scans) == cfg.n_steps
    for rows, (p_f, q, g) in zip(traj.features, scans):
        assert np.array_equal(rows.p_f, p_f)
        assert np.array_equal(rows.q, q)
        assert np.array_equal(rows.g, g)


def test_trajectories_are_read_only():
    # one trajectory is run by both filters and every round of a benchmark,
    # so no caller may write into it
    cfg = ScenarioConfig(duration=0.05, nmax=2)
    traj = generate_trajectory(cfg)
    scan = traj.features[0]
    row = next(iter(scan))
    for arr in (traj.times, traj.truth, traj.imu, scan.p_f, scan.q, scan.g, row.p_f,
                row.u_dir, row.q):
        with pytest.raises(ValueError):
            arr[0] += 1.0
    record = run_trial(cfg, traj=traj)
    assert not record.failed
    assert len(trial_csv_rows(record)) == 1 + (cfg.n_steps + 1) * 23
