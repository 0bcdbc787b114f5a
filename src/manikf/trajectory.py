"""Synthetic trajectory, IMU, and plane-feature generation.

Ground truth is produced by the same discrete recursion the filter
assumes, with the true process noise drawn from the filter's Q, so the
filter is exactly matched to the data and statistical consistency checks
have their nominal chi-square reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import ContractViolationError
from .lidar_inertial import BLOCKS, GRAVITY, REP, TAN, ScanRows
from .so3 import cross_rows, so3_exp

SCENARIOS = ("static", "circle", "fast-rotation")

# per-block standard deviations for the initial tangent-space covariance:
# p, v, R, b_a, b_w, g, R_ext, p_ext
DEFAULT_INIT_SIGMA = (0.1, 0.1, 0.05, 0.02, 0.002, 0.03, 0.03, 0.05)

SIGMAS = ("sigma_a", "sigma_w", "sigma_ba", "sigma_bw", "sigma_feature")

TRUE_EXT_ROT = (0.10, 0.20, -0.15)  # rotation vector, rad
TRUE_EXT_POS = (0.10, -0.05, 0.08)  # m


@dataclass
class ScenarioConfig:
    """Everything that determines one simulated run, including the RNG seed."""

    scenario: str = "circle"
    seed: int = 0
    duration: float = 20.0
    dt: float = 0.01
    peak_rate: float = 6.0  # rad/s, fast-rotation scenario only
    n_planes: int = 20
    points_per_update: int = 10
    sigma_a: float = 0.05  # accel white noise, m/s^2/sqrt(Hz)
    sigma_w: float = 0.005  # gyro white noise, rad/s/sqrt(Hz)
    sigma_ba: float = 1e-4  # accel bias walk
    sigma_bw: float = 1e-5  # gyro bias walk
    sigma_feature: float = 0.02  # lidar point noise, m
    init_sigma: Tuple[float, ...] = DEFAULT_INIT_SIGMA
    nmax: int = 4
    filter: str = "ikfom"
    baseline_mode: str = "augmented"  # "hard" | "augmented"

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ContractViolationError(f"unknown scenario {self.scenario!r}")
        # NaN fails no sign or range check below, and inf overflows n_steps
        names = ("duration", "dt", "peak_rate", *SIGMAS)
        ok = np.isfinite([getattr(self, name) for name in names] + list(self.init_sigma))
        if not ok.all():
            names += ("init_sigma",) * len(self.init_sigma)
            raise ContractViolationError(f"{names[np.argmin(ok)]} must be finite")
        if not (self.dt > 0.0 and self.duration >= self.dt):
            raise ContractViolationError("need dt > 0 and duration >= dt")
        for name in SIGMAS:
            if getattr(self, name) < 0.0:
                raise ContractViolationError(f"{name} must be non-negative")
        if self.seed < 0:  # default_rng rejects a negative entry of [seed, trial]
            raise ContractViolationError("seed must be non-negative")
        if self.filter not in ("ikfom", "quat"):
            raise ContractViolationError(f"unknown filter {self.filter!r}")
        if self.baseline_mode not in ("hard", "augmented"):
            raise ContractViolationError(
                f"unknown baseline_mode {self.baseline_mode!r}"
            )
        if len(self.init_sigma) != len(BLOCKS):
            raise ContractViolationError("init_sigma needs one entry per state block")
        if min(self.init_sigma) < 0.0:  # init_cov squares them
            raise ContractViolationError("init_sigma entries must be non-negative")
        for name in ("points_per_update", "n_planes"):
            if getattr(self, name) < 1:
                raise ContractViolationError(f"{name} must be at least 1")
        if self.nmax < 0:
            raise ContractViolationError("nmax must be non-negative")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))

    def process_noise(self) -> np.ndarray:
        """Q for the 12-dim noise [n_a, n_w, n_ba, n_bw] (density / dt)."""
        diag = np.concatenate(
            [
                np.full(3, self.sigma_a**2),
                np.full(3, self.sigma_w**2),
                np.full(3, self.sigma_ba**2),
                np.full(3, self.sigma_bw**2),
            ]
        )
        return np.diag(diag / self.dt)

    def init_cov(self) -> np.ndarray:
        dims = [sl.stop - sl.start for sl in TAN.values()]
        return np.diag(np.repeat(np.square(self.init_sigma), dims))


@dataclass
class Trajectory:
    """Ground truth plus the noisy observables handed to a filter, all read-only."""

    times: np.ndarray  # (K+1,)
    truth: np.ndarray  # (K+1, 36) flat states
    imu: np.ndarray  # (K, 6) [a_m, w_m]
    features: List[ScanRows]  # per step k, observed after step k+1


def _motion_profiles(cfg: ScenarioConfig):
    """Analytic desired velocity v_d(t) and body rate w(t) per scenario, each
    (n, 3) at the n times t."""
    if cfg.scenario != "fast-rotation":  # static is the circle at zero speed and rate
        speed, yaw_rate = (1.0, 0.5) if cfg.scenario == "circle" else (0.0, 0.0)
        return (
            lambda t: speed * np.stack([np.cos(yaw_rate * t), np.sin(yaw_rate * t), 0.0 * t], 1),
            lambda t: np.tile([0.0, 0.0, yaw_rate], (len(t), 1)),
        )
    # fast-rotation: constant-magnitude rate with a slewing axis
    slew, tilt = 1.5, 0.5
    scale = cfg.peak_rate / np.sqrt(1.0 + tilt * tilt)

    def rate(t):
        return scale * np.stack([np.cos(slew * t), np.sin(slew * t), np.full_like(t, tilt)], 1)

    def v_d(t):
        return 0.3 * np.stack([np.sin(t), np.cos(t), 0.2 * np.sin(0.5 * t)], 1)

    return v_d, rate


def _make_planes(cfg: ScenarioConfig, rng: np.random.Generator):
    """Random scene planes: anchors, in-plane bases, unit normals."""
    normals = rng.standard_normal((cfg.n_planes, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    anchors = rng.uniform(-10.0, 10.0, size=(cfg.n_planes, 3))
    return anchors, _plane_bases(normals), normals


def generate_trajectory(cfg: ScenarioConfig, trial: int = 0) -> Trajectory:
    """Simulate one run; deterministic in (cfg, trial). The arrays are read-only.

    Draw order: the planes, the four (K, 3) IMU noise blocks, then per step
    the scan's plane indices, in-plane coefficients and point noise, drawn
    into that step's rows of the preallocated arrays. The IMU stream holds
    the true biases and white noise. With zero noise, the filter's recursion
    re-integrates it to the truth only to rounding: its
    v + dt (R (R^T (a - g)) + g) is not bitwise the generator's v + dt a.
    Only the draws and the attitude recursion run per step; the K scans come
    from one ScanRows.steps, which checks every scan row once.
    """
    cfg.validate()
    rng = np.random.default_rng([int(cfg.seed), trial])
    k_steps, m, dt = cfg.n_steps, cfg.points_per_update, cfg.dt
    v_d, rate = _motion_profiles(cfg)
    g_true = np.array([0.0, 0.0, -GRAVITY])
    r_ext = so3_exp(np.array(TRUE_EXT_ROT))
    p_ext = np.array(TRUE_EXT_POS)

    anchors, bases, normals = _make_planes(cfg, rng)
    sq = np.sqrt(1.0 / dt)  # discrete noise std scale
    n_a, n_w, n_ba, n_bw = [s * sq * rng.standard_normal((k_steps, 3)) for s in (
        cfg.sigma_a, cfg.sigma_w, cfg.sigma_ba, cfg.sigma_bw)]
    idx, coeff = np.empty((k_steps, m), dtype=np.int64), np.empty((k_steps, m, 2))
    p_f = np.empty((k_steps, m, 3))  # the point noise, then the noisy points
    n_planes, integers, random, normal = cfg.n_planes, rng.integers, rng.random, rng.standard_normal
    for k in range(k_steps):  # each step's rows, in draw order
        idx[k] = integers(0, n_planes, m)
        random(out=coeff[k])
        normal(out=p_f[k])
    coeff *= 10.0  # uniform(-5, 5) of the same draws: 10 u - 5 rounds as its -5 + 10 u
    coeff -= 5.0

    times = dt * np.arange(k_steps + 1)
    t = times[:-1]  # each step ends at t + dt, which times[1:] can round differently
    w_true = rate(t)
    a_global = (v_d(t + dt) - v_d(t)) / dt  # desired v follows v_d exactly
    rots = [np.eye(3)]
    for w in dt * w_true:
        rots.append(rots[-1].dot(so3_exp(w)))
    rots = np.array(rots)

    def walk(first, rates):  # first + dt rates[0] + dt rates[1] + ..., added in order
        return np.cumsum(np.concatenate([first, dt * rates]), axis=0)

    zero = np.zeros((1, 3))
    v = walk(v_d(times[:1]), a_global)
    p, ba, bw = walk(zero, v[:-1]), walk(zero, n_ba), walk(zero, n_bw)
    truth = np.empty((k_steps + 1, REP[BLOCKS[-1]].stop))
    for name, block in zip(BLOCKS, (p, v, rots, ba, bw, g_true, r_ext, p_ext)):
        truth[:, REP[name]] = block.reshape(-1, REP[name].stop - REP[name].start)
    a_body = (rots[:-1].transpose(0, 2, 1) @ (a_global - g_true)[:, :, None])[:, :, 0]
    imu = np.concatenate([a_body + ba[:-1] + n_a, w_true + bw[:-1] + n_w], axis=1)

    # points on the chosen planes within a patch around each anchor, seen from the lidar
    # at the step's end, ((a + B c - p) R - p_ext) R_ext, in two reused (K, m, 3) buffers
    pts = bases[:, :, 0][idx] * coeff[:, :, :1]
    work = bases[:, :, 1][idx]
    work *= coeff[:, :, 1:]
    pts += work
    pts += np.take(anchors, idx, axis=0, out=work, mode="clip")  # "raise" copies out=
    pts -= p[1:, None]
    np.matmul(pts, rots[1:], out=work)
    work -= p_ext
    np.matmul(work, r_ext, out=pts)
    p_f *= cfg.sigma_feature
    p_f += pts
    q = np.take(anchors, idx, axis=0, out=work, mode="clip")
    g = np.take(normals, idx, axis=0, out=pts, mode="clip")
    for a in (times, truth, imu):
        a.flags.writeable = False
    del idx, coeff  # 24 K m bytes, freed before the scan check's 8 K m temporary
    features = ScanRows.steps(p_f, q, g)  # read-only too
    return Trajectory(times=times, truth=truth, imu=imu, features=features)


def _plane_bases(normals: np.ndarray) -> np.ndarray:
    """In-plane bases B (n, 3, 2) of unit normals n (n, 3): orthonormal, B^T n = 0,
    det[n, b1, b2] = +1. Each row's norm is its own np.vecdot, summed as
    np.linalg.norm sums one vector, so no row's bits depend on the others."""
    a = np.zeros_like(normals)
    a[np.arange(len(normals)), np.argmin(np.abs(normals), axis=1)] = 1.0
    b1 = cross_rows(normals, a)
    b1 /= np.sqrt(np.vecdot(b1, b1))[:, None]
    return np.stack([b1, cross_rows(normals, b1)], axis=2)
