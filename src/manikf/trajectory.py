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
from .lidar_inertial import BLOCKS, GRAVITY, TAN, ScanRows, make_state
from .so3 import so3_exp

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
        for name in ("duration", "dt", "peak_rate", *SIGMAS, "init_sigma"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ContractViolationError(f"{name} must be finite")
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
    """Ground truth plus the noisy observables handed to a filter."""

    times: np.ndarray  # (K+1,)
    truth: np.ndarray  # (K+1, 36) flat states
    imu: np.ndarray  # (K, 6) [a_m, w_m]
    features: List[ScanRows]  # per step k, observed after step k+1; read-only


def _motion_profiles(cfg: ScenarioConfig):
    """Analytic desired velocity v_d(t) and body rate w(t) per scenario."""
    if cfg.scenario == "static":
        return (lambda t: np.zeros(3)), (lambda t: np.zeros(3))
    if cfg.scenario == "circle":
        speed, yaw_rate = 1.0, 0.5
        return (
            lambda t: speed
            * np.array([np.cos(yaw_rate * t), np.sin(yaw_rate * t), 0.0]),
            lambda t: np.array([0.0, 0.0, yaw_rate]),
        )
    # fast-rotation: constant-magnitude rate with a slewing axis
    slew, tilt = 1.5, 0.5
    scale = cfg.peak_rate / np.sqrt(1.0 + tilt * tilt)

    def rate(t):
        return scale * np.array([np.cos(slew * t), np.sin(slew * t), tilt])

    def v_d(t):
        return 0.3 * np.array([np.sin(t), np.cos(t), 0.2 * np.sin(0.5 * t)])

    return v_d, rate


def _make_planes(cfg: ScenarioConfig, rng: np.random.Generator):
    """Random scene planes: anchors, in-plane bases, unit normals."""
    normals = rng.standard_normal((cfg.n_planes, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    anchors = rng.uniform(-10.0, 10.0, size=(cfg.n_planes, 3))
    return anchors, _plane_bases(normals), normals


def generate_trajectory(cfg: ScenarioConfig, trial: int = 0) -> Trajectory:
    """Simulate one run; deterministic in (cfg, trial).

    The IMU stream already contains the true biases and white noise; with
    zero noise settings, re-integrating the recursion reproduces the truth
    bitwise.
    """
    cfg.validate()
    rng = np.random.default_rng([int(cfg.seed), trial])
    k_steps = cfg.n_steps
    dt = cfg.dt
    v_d, rate = _motion_profiles(cfg)
    g_true = np.array([0.0, 0.0, -GRAVITY])
    r_ext = so3_exp(np.array(TRUE_EXT_ROT))
    p_ext = np.array(TRUE_EXT_POS)

    planes = _make_planes(cfg, rng)
    sq = np.sqrt(1.0 / dt)  # discrete noise std scale
    n_a = cfg.sigma_a * sq * rng.standard_normal((k_steps, 3))
    n_w = cfg.sigma_w * sq * rng.standard_normal((k_steps, 3))
    n_ba = cfg.sigma_ba * sq * rng.standard_normal((k_steps, 3))
    n_bw = cfg.sigma_bw * sq * rng.standard_normal((k_steps, 3))

    imu = np.zeros((k_steps, 6))
    features: List[ScanRows] = []
    times = dt * np.arange(k_steps + 1)

    p = np.zeros(3)
    v = v_d(0.0)
    rot = np.eye(3)
    ba = np.zeros(3)
    bw = np.zeros(3)
    truth = [make_state(p, v, rot, ba, bw, g_true, r_ext, p_ext)]

    for k in range(k_steps):
        t = times[k]
        w_true = rate(t)
        a_global = (v_d(t + dt) - v_d(t)) / dt  # desired v follows v_d exactly
        a_body = rot.T @ (a_global - g_true)
        imu[k, :3] = a_body + ba + n_a[k]
        imu[k, 3:] = w_true + bw + n_w[k]

        p = p + dt * v
        v = v + dt * a_global
        rot = rot @ so3_exp(dt * w_true)
        ba = ba + dt * n_ba[k]
        bw = bw + dt * n_bw[k]
        truth.append(make_state(p, v, rot, ba, bw, g_true, r_ext, p_ext))

        features.append(_observe(cfg, rng, planes, p, rot, r_ext, p_ext))

    truth = np.array(truth)
    return Trajectory(times=times, truth=truth, imu=imu, features=features)


def _observe(cfg, rng, planes, p, rot, r_ext, p_ext):
    """One scan: points on random planes, in the lidar frame, as residual rows."""
    anchors, bases, normals = planes
    m = cfg.points_per_update
    idx = rng.integers(0, cfg.n_planes, size=m)
    # random points on the chosen planes within a patch around each anchor
    coeff = rng.uniform(-5.0, 5.0, size=(m, 2))
    g_pts = anchors[idx] + np.einsum("kij,kj->ki", bases[idx], coeff)
    p_lidar = ((g_pts - p) @ rot - p_ext) @ r_ext
    noisy = p_lidar + cfg.sigma_feature * rng.standard_normal((m, 3))
    return ScanRows(p_f=noisy, q=anchors[idx], g=normals[idx])


def _plane_bases(normals: np.ndarray) -> np.ndarray:
    """In-plane bases B (n, 3, 2) of unit normals n (n, 3): orthonormal, B^T n = 0,
    det[n, b1, b2] = +1. Each row's norm is its own dot, as np.linalg.norm
    takes it for one vector, so no row's bits depend on the others."""
    a = np.zeros_like(normals)
    a[np.arange(len(normals)), np.argmin(np.abs(normals), axis=1)] = 1.0
    b1 = np.cross(normals, a)
    b1 /= np.sqrt([b.dot(b) for b in b1])[:, None]
    return np.stack([b1, np.cross(normals, b1)], axis=2)
