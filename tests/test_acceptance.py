"""End-to-end acceptance suite.

Seven checks covering operator algebra, every analytic Jacobian against
finite differences, exact agreement with a textbook Kalman filter on a
linear problem, statistical consistency over a Monte-Carlo batch, extrinsic
self-calibration accuracy, a paired drift comparison against the
quaternion-vector baseline, and landmark-constancy of the bearing block.
Each check carries an explicit wall-clock budget.

The Jacobian sweep is the suite's one random finite-difference check of
each analytic Jacobian. It takes 500 random draws of each input (250 of
each baseline constraint mode): the chart Jacobians of R^4, SO(3), S^2
(points of norm 9.81), a three-part compound and the one-part
compound(Sphere2()) (points of norm 3), every fifth compound velocity zero
on its curved parts; the lidar-inertial f and h on plane, edge and mixed
scans; the baseline's f and h in both constraint modes, every other state
on the q and g constraint sets and the others off them; and every process
block of the test module ``process_blocks``, the bearing block with the
default linear depth and with d = d' = d'' = exp.
"""
import dataclasses
import time

import numpy as np
import pytest

from manikf.baseline import BREP, N_CONSTRAINTS, baseline_model, from_manifold
from manikf.baseline import NOISE_DIM as B_NOISE_DIM
from manikf.baseline import STATE_DIM as B_STATE_DIM
from manikf.filter import FilterState, UpdateConfig, predict, update
from manikf.harness import run_trial, summarize
from manikf.lidar_inertial import NOISE_DIM, TANGENT_DIM, lidar_inertial_model
from manifold_samples import random_point, random_tangent, with_norm
from manikf.manifolds import SO3, Compound, Euclidean, Sphere2, compound
from manikf.so3 import so3_exp
from manikf.trajectory import ScenarioConfig

from helpers import (
    TextbookKF,
    assert_additive_noise,
    assert_close,
    fd_diff_u,
    fd_jacobian,
    fd_step_pair,
    linear_model,
    random_li_state,
    random_scan,
)
from process_blocks import (
    block_attitude_body,
    block_attitude_global,
    block_bearing_landmark,
    block_gravity_body,
    block_gravity_global,
)


# ---------------------------------------------------------------------------
# 1. operator identities


def test_operator_identities_bulk():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    manifolds = (Euclidean(3), SO3(), Sphere2())
    for man in manifolds:
        bplus, bminus = man.boxplus, man.boxminus
        zero = np.zeros(man.dim)
        for _ in range(10_000):
            x = random_point(man, rng, radius=9.81)
            u = random_tangent(man, rng)
            # boxplus(x, 0) = x
            assert np.max(np.abs(bplus(x, zero) - x)) < 1e-9
            # boxminus(boxplus(x, u), x) = u
            y = bplus(x, u)
            back = bminus(y, x)
            assert np.max(np.abs(back - u)) < 1e-9
            # boxplus(x, boxminus(y, x)) = y; y = boxplus(x, u) sweeps every
            # point within the sampled chart radius of x
            assert np.max(np.abs(bplus(x, back) - y)) < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"operator identity sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. every analytic Jacobian against central finite differences


def _check_jac(analytic, numeric, what):
    assert_close(analytic, numeric, tol=1e-5, floor=1e-7, msg=what)


# (planes, edges) per scan: plane-only, edge-only and mixed
LI_SCANS = ((4, 1), (4, 0), (3, 2), (4, 0), (0, 3))
BASELINE_SCANS = ((3, 0), (2, 2))


def test_all_jacobians_match_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    points = 500

    # chart Jacobians of all manifolds, including a compound state; each with
    # the radius of its sphere points
    for man, radius in ((Euclidean(4), 1.0), (SO3(), 1.0), (Sphere2(), 9.81),
                        (compound(Euclidean(2), SO3(), Sphere2()), 1.0),
                        (compound(Sphere2()), 3.0)):
        for k in range(points):
            x = random_point(man, rng, radius=radius)
            u = 0.3 * rng.standard_normal(man.dim)
            v = 0.3 * rng.standard_normal(man.control_dim)
            if isinstance(man, Compound) and k % 5 == 0:
                # a static curved part's zero velocity next to moving parts, as in predict
                for p, cs in zip(man.parts, man.ctrl_slices):
                    if not isinstance(p, Euclidean):
                        v[cs] = 0.0
            _check_jac(man.diff_u(x, u)[1], fd_diff_u(man, x, u), f"diff_u {type(man).__name__}")
            for got, want, what in zip(man.diff_v(x, v)[1:], fd_step_pair(man, x, v), "xv"):
                _check_jac(got, want, f"diff_v G_{what} {type(man).__name__}")

    # lidar-inertial process and measurement Jacobians
    model = lidar_inertial_model()
    man = model.manifold
    for k in range(points):
        x = random_li_state(rng)
        u = np.concatenate([rng.standard_normal(3), rng.standard_normal(3)])
        fx = lambda e: np.asarray(model.f(man.boxplus(x, e), u, np.zeros(NOISE_DIM)))
        fw = lambda w: np.asarray(model.f(x, u, w))
        _check_jac(model.df_dx(x, u), fd_jacobian(fx, np.zeros(TANGENT_DIM)), "li df_dx")
        _check_jac(model.df_dw(x, u), fd_jacobian(fw, np.zeros(NOISE_DIM)), "li df_dw")
        rows = random_scan(rng, *LI_SCANS[k % len(LI_SCANS)])
        nv = len(rows.g)
        hx = lambda e: np.asarray(model.h(man.boxplus(x, e), np.zeros(nv), rows))
        _check_jac(model.dh_dx(x, rows), fd_jacobian(hx, np.zeros(TANGENT_DIM)),
                   "li dh_dx")
        assert_additive_noise(model.h, x, rows, nv)

    # baseline Jacobians, both constraint modes
    for augmented in (False, True):
        bmodel = baseline_model(augmented=augmented)
        for k in range(points // 2):
            x = from_manifold(random_li_state(rng))
            if k % 2:  # q and g off their constraint sets; Jacobians must match there too
                x[BREP["q"]] *= 1.01
                x[BREP["g"]] *= 0.99
            u = rng.standard_normal(6)
            fx = lambda e: np.asarray(bmodel.f(x + e, u, np.zeros(B_NOISE_DIM)))
            fw = lambda w: np.asarray(bmodel.f(x, u, w))
            _check_jac(bmodel.df_dx(x, u), fd_jacobian(fx, np.zeros(B_STATE_DIM)),
                       "baseline df_dx")
            _check_jac(bmodel.df_dw(x, u), fd_jacobian(fw, np.zeros(B_NOISE_DIM)),
                       "baseline df_dw")
            rows = random_scan(rng, *BASELINE_SCANS[k % len(BASELINE_SCANS)])
            nv = len(rows.g) + (N_CONSTRAINTS if augmented else 0)
            hx = lambda e: np.asarray(bmodel.h(x + e, np.zeros(nv), rows))
            _check_jac(bmodel.dh_dx(x, rows), fd_jacobian(hx, np.zeros(B_STATE_DIM)),
                       "baseline dh_dx")
            assert_additive_noise(bmodel.h, x, rows, nv)

    # process blocks, gravity of norm 9.81 and unit bearings
    blocks = (
        (block_attitude_global(), 1.0, lambda: rng.standard_normal(3)),
        (block_attitude_body(), 1.0, lambda: rng.standard_normal(3)),
        (block_gravity_global(), 9.81, lambda: rng.standard_normal(3)),
        (block_gravity_body(), 9.81, lambda: rng.standard_normal(3)),
        (block_bearing_landmark(), 1.0, lambda: (rng.standard_normal(3),
                                                 rng.standard_normal(3))),
        # a depth map whose d'' is not zero
        (block_bearing_landmark(d=np.exp, d_prime=np.exp, d_second=np.exp), 1.0,
         lambda: (rng.standard_normal(3), rng.standard_normal(3))),
    )
    for blk, radius, draw_u in blocks:
        bman = blk.manifold
        for _ in range(points):
            x = random_point(bman, rng, radius=radius)
            u = draw_u()
            w = np.zeros(blk.df_dw(x, u).shape[1])
            fx = lambda e: np.asarray(blk.f(bman.boxplus(x, e), u, w))
            _check_jac(blk.df_dx(x, u), fd_jacobian(fx, np.zeros(bman.dim)),
                       "block df_dx")

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"Jacobian sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. exact equivalence with a textbook Kalman filter on a linear problem


def test_linear_problem_reduces_to_textbook_kf():
    started = time.perf_counter()
    rng = np.random.default_rng(17)
    n, m, dt = 4, 2, 0.1
    a = 0.3 * rng.standard_normal((n, n))
    c = rng.standard_normal((m, n))
    q = np.diag(rng.uniform(0.01, 0.1, n))
    r = np.diag(rng.uniform(0.05, 0.2, m))
    model = linear_model(a, c)
    f_mat = np.eye(n) + dt * a
    x0 = rng.standard_normal(n)
    p0 = np.diag(rng.uniform(0.5, 2.0, n))
    zs = rng.standard_normal((100, m))
    us = rng.standard_normal((100, n))
    for nmax in (0, 1, 4):
        state = FilterState(x0.copy(), p0.copy())
        oracle = TextbookKF(x0, p0)
        cfg = UpdateConfig(max_iterations=nmax)
        for k in range(100):
            state = predict(model, state, us[k], dt, q)
            state, diag = update(model, state, zs[k], r, config=cfg)
            oracle.predict(f_mat, dt * dt * q)
            oracle.x = oracle.x + dt * us[k]
            oracle.update(zs[k], c, r)
            assert np.max(np.abs(state.x - oracle.x)) < 1e-9
            assert np.max(np.abs(state.P - oracle.p)) < 1e-9
            # a linear h has no linearization error: the first gain is the last
            assert diag.iterations == 0
            assert diag.converged == (nmax > 0)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"linear equivalence took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 4. statistical consistency over a Monte-Carlo batch


@pytest.mark.slow
def test_monte_carlo_consistency():
    started = time.perf_counter()
    cfg = ScenarioConfig(scenario="circle", seed=0, duration=20.0, dt=0.01, nmax=2)
    assert cfg.n_steps >= 2000
    records = [run_trial(cfg, trial=i) for i in range(50)]
    assert not any(r.failed for r in records)
    summary = summarize(records)
    # time-averaged NEES within 20% below / 25% above the state dimension
    assert 18.4 <= summary["mean_nees"] <= 28.75, summary
    assert summary["containment_rate"] >= 0.95, summary
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"consistency batch took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 5. extrinsic self-calibration under excitation


def test_extrinsic_calibration_accuracy():
    cfg = ScenarioConfig(scenario="fast-rotation", seed=0, duration=10.0,
                         dt=0.02, nmax=4)
    for trial in range(6):
        rec = run_trial(cfg, trial=trial)
        assert not rec.failed
        assert rec.final_ext_rot_deg < 3.0, (trial, rec.final_ext_rot_deg)
        assert rec.final_ext_pos < 0.05, (trial, rec.final_ext_pos)


# ---------------------------------------------------------------------------
# 6. paired drift comparison against the quaternion baseline


@pytest.mark.slow
def test_fast_rotation_beats_baseline():
    started = time.perf_counter()
    cfg = ScenarioConfig(scenario="fast-rotation", seed=0, duration=10.0,
                         dt=0.02, nmax=4)
    # the scenario's rotation rate is at least 300 deg/s throughout
    assert np.degrees(cfg.peak_rate) >= 300.0
    ratios = []
    for trial in range(50):
        rec_m = run_trial(cfg, trial=trial)
        rec_q = run_trial(dataclasses.replace(cfg, filter="quat"), trial=trial)
        assert not rec_m.failed and not rec_q.failed
        ratios.append(rec_q.final_drift / rec_m.final_drift)
    ratios = np.array(ratios)
    assert np.mean(ratios >= 1.0) >= 0.80, ratios.round(2)
    assert np.median(ratios) >= 1.5, np.median(ratios)
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"comparison batch took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 7. landmark constancy of the bearing/depth block


def test_landmark_constancy_under_camera_motion():
    blk = block_bearing_landmark()
    rng = np.random.default_rng(31)
    dt = 1e-3
    for _ in range(10):
        r_cam = so3_exp(rng.standard_normal(3))
        p_cam = rng.standard_normal(3)
        bearing = with_norm(rng, 3)
        rho = rng.uniform(1.0, 4.0)
        state = np.concatenate([bearing, [rho]])
        target = r_cam @ (bearing * rho) + p_cam
        omega = rng.standard_normal(3)
        v = rng.standard_normal(3)
        for _ in range(100):
            state = predict(blk, FilterState(state, np.zeros((3, 3))), (omega, v), dt,
                            np.zeros((0, 0))).x
            r_cam = r_cam @ so3_exp(dt * omega)
            p_cam = p_cam + dt * (r_cam @ v)
        rebuilt = r_cam @ (state[:3] * state[3]) + p_cam
        assert np.linalg.norm(rebuilt - target) / np.linalg.norm(target) < 1e-3
