"""Tests for the synthetic scenario generator."""
import dataclasses

import numpy as np
import pytest

from manikf.errors import ContractViolationError
from manikf.lidar_inertial import NOISE_DIM, REP, lidar_inertial_model, state_manifold
from manikf.trajectory import (
    SCENARIOS,
    ScenarioConfig,
    generate_trajectory,
)

from helpers import assert_close


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


def test_generation_is_deterministic():
    cfg = ScenarioConfig(scenario="circle", seed=42, duration=1.0)
    a = generate_trajectory(cfg, trial=3)
    b = generate_trajectory(cfg, trial=3)
    assert np.array_equal(a.truth, b.truth)
    assert np.array_equal(a.imu, b.imu)
    for fa, fb in zip(a.features, b.features):
        for xa, xb in zip(fa, fb):
            assert np.array_equal(xa.p_f, xb.p_f)
            assert np.array_equal(xa.u_dir, xb.u_dir)
    c = generate_trajectory(cfg, trial=4)
    assert not np.array_equal(a.imu, c.imu)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_zero_noise_truth_matches_model_recursion(scenario):
    # with all noise off, feeding the recorded IMU through the filter's own
    # process recursion must reproduce the stored truth
    cfg = _quiet(ScenarioConfig(scenario=scenario, duration=1.0, dt=0.01))
    traj = generate_trajectory(cfg)
    man = state_manifold()
    model = lidar_inertial_model()
    x = traj.truth[0].copy()
    for k in range(traj.imu.shape[0]):
        dx = cfg.dt * model.f(x, traj.imu[k], np.zeros(NOISE_DIM))
        x = man.oplus(x, dx)
        assert np.max(np.abs(x - traj.truth[k + 1])) < 1e-9


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
