"""Overparameterized comparison filter: quaternion attitude as a free R^4.

Same physical state as the lidar-inertial model, but attitude and
extrinsic rotation are unit quaternions treated as unconstrained 4-vectors
and gravity is a free 3-vector, so the whole state is Euclidean (dim 26)
and the generic filter runs on it directly. The unit-norm and fixed-norm
constraints are enforced from outside:

* ``normalize_state`` rescales q, q_ext, and g after every step and leaves
  the covariance untouched (the naive fix), and
* the ``augmented`` measurement mode appends the constraint residuals
  q^T q - 1, g^T g - r^2, q_ext^T q_ext - 1 as pseudo-measurements.

Quaternions are Hamilton convention, stored [w, x, y, z]. Errors are taken in
the 23-dim tangent space, with P mapped there by ``tangent_cov``.
"""
from __future__ import annotations

import numpy as np

from .filter import SystemModel
from .lidar_inertial import GRAVITY, NOISE_DIM, REP, TAN, TANGENT_DIM, scan_residuals
from .manifolds import Euclidean, compound
from .so3 import cross_rows, skew
from .sphere import sphere_basis

# the R^26 layout is read off a compound, as REP is; the model runs on one
# Euclidean(STATE_DIM), which is cheaper per call than the compound
_LAYOUT = compound(*(Euclidean(n) for n in (3, 3, 4, 3, 3, 3, 4, 3)))
BREP = dict(zip(("p", "v", "q", "ba", "bw", "g", "q_ext", "p_ext"), _LAYOUT.rep_slices))
STATE_DIM = _LAYOUT.rep_dim
N_CONSTRAINTS = 3
CONSTRAINT_SIGMA = 1e-3  # pseudo-measurement noise of the constraint rows


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a (not necessarily unit) quaternion."""
    w, v = q[0], q[1:]
    return (w * w - v @ v) * np.eye(3) + 2.0 * np.outer(v, v) + 2.0 * w * skew(v)


def rot_to_quat(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (w >= 0) of a rotation matrix."""
    w = 0.5 * np.sqrt(max(1.0 + np.trace(r), 0.0))
    if w > 1e-6:
        v = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
        q = np.concatenate([[w], v / (4.0 * w)])
    else:
        i = int(np.argmax(np.diag(r)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(r[i, i] - r[j, j] - r[k, k] + 1.0, 0.0))
        v = np.zeros(3)
        v[i] = 0.5 * s
        v[j] = (r[i, j] + r[j, i]) / (2.0 * s)
        v[k] = (r[i, k] + r[k, i]) / (2.0 * s)
        q = np.concatenate([[(r[k, j] - r[j, k]) / (2.0 * s)], v])
        if q[0] < 0.0:
            q = -q
    return q / np.linalg.norm(q)


def _xi(q: np.ndarray) -> np.ndarray:
    """d(q * [0, w])/dw: 4x3 matrix with q_dot = 0.5 * xi(q) w."""
    w, v = q[0], q[1:]
    return np.vstack([-v, w * np.eye(3) + skew(v)])


def _omega(w: np.ndarray) -> np.ndarray:
    """d(q * [0, w])/dq: 4x4 right-multiplication matrix."""
    out = np.zeros((4, 4))
    out[0, 1:] = -w
    out[1:, 0] = w
    out[1:, 1:] = -skew(w)
    return out


def _rows_drot_dq(q: np.ndarray, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Batched u_i^T d(R(q) s_i)/dq, shape (m, 4), for the quadratic (non-unit) R(q)."""
    w, v = q[0], q[1:]
    us = np.einsum("ij,ij->i", u, s)
    uxs = cross_rows(u, s)
    out = np.empty((u.shape[0], 4))
    out[:, 0] = 2.0 * (w * us - uxs @ v)  # u . (v x s) = -v . (u x s)
    out[:, 1:] = 2.0 * ((u @ v)[:, None] * s + (s @ v)[:, None] * u - us[:, None] * v - w * uxs)
    return out


def from_manifold(x36: np.ndarray) -> np.ndarray:
    """The R^26 state of a lidar-inertial manifold-representation state."""
    return np.concatenate([
        rot_to_quat(x36[sl].reshape(3, 3)) if key in ("R", "R_ext") else x36[sl]
        for key, sl in REP.items()
    ])


def to_manifold(x26: np.ndarray) -> np.ndarray:
    """The lidar-inertial manifold representation; quaternions are normalized."""
    return np.concatenate([
        quat_to_rot(x26[sl] / np.linalg.norm(x26[sl])).reshape(9)
        if key in ("q", "q_ext") else x26[sl]
        for key, sl in BREP.items()
    ])


def initial_cov(init_sigma) -> np.ndarray:
    """Map the per-block tangent sigmas (p, v, R, b_a, b_w, g, R_ext, p_ext)
    onto the R^26 state: half the sigma on quaternions and GRAVITY times it on
    gravity, so that for unit q and |g| = GRAVITY tangent_cov maps this prior
    exactly onto the manifold filter's tangent prior."""
    scale = (1.0, 1.0, 0.5, 1.0, 1.0, GRAVITY, 0.5, 1.0)
    var = [(k * s) ** 2 for k, s in zip(scale, init_sigma)]
    return np.diag(np.repeat(var, [sl.stop - sl.start for sl in BREP.values()]))


def tangent_cov(x: np.ndarray, P: np.ndarray) -> np.ndarray:
    """P in the 23-dim lidar-inertial tangent space: G P G^T, where
    G = d[to_manifold(x + d) boxminus to_manifold(x)]/dd is 2 xi(q)^T on unit
    quaternions, B(g)^T skew(g) / |g|^2 on gravity and I elsewhere. G drops the
    radial directions, and since boxminus compares rotations, q and -q agree."""
    g = x[BREP["g"]]
    G = np.zeros((TANGENT_DIM, STATE_DIM))
    for key in ("p", "v", "ba", "bw", "p_ext"):
        G[TAN[key], BREP[key]] = np.eye(3)
    G[TAN["R"], BREP["q"]] = 2.0 * _xi(x[BREP["q"]]).T
    G[TAN["R_ext"], BREP["q_ext"]] = 2.0 * _xi(x[BREP["q_ext"]]).T
    G[TAN["g"], BREP["g"]] = sphere_basis(g).T @ skew(g) / (g @ g)
    return G @ P @ G.T


def normalize_state(x: np.ndarray) -> np.ndarray:
    """Project q, q_ext, g back onto their constraint sets; P is not touched."""
    out = x.copy()
    for key in ("q", "q_ext"):
        n = np.linalg.norm(out[BREP[key]])
        if n < 1e-12:
            raise FloatingPointError(f"{key} collapsed to zero; cannot normalize")
        out[BREP[key]] /= n
    gn = np.linalg.norm(out[BREP["g"]])
    if gn < 1e-12:
        raise FloatingPointError("gravity estimate collapsed to zero")
    out[BREP["g"]] *= GRAVITY / gn
    return out


def baseline_model(augmented: bool = False) -> SystemModel:
    """SystemModel on R^26 mirroring the lidar-inertial dynamics.

    Measurement context is the same ScanRows as the lidar-inertial model's,
    and the scan rows come from the shared scan_residuals. In augmented mode
    the three constraint rows follow the scan rows, so the caller's R needs
    three extra diagonal entries (CONSTRAINT_SIGMA^2) and z three extra zeros.
    """
    man = Euclidean(STATE_DIM)
    r2 = GRAVITY * GRAVITY
    extra = N_CONSTRAINTS if augmented else 0

    def f(x, u, w):
        a_m, w_m = u[:3], u[3:6]
        q = x[BREP["q"]]
        out = np.zeros(STATE_DIM)
        out[BREP["p"]] = x[BREP["v"]]
        out[BREP["v"]] = quat_to_rot(q) @ (a_m - x[BREP["ba"]] - w[0:3]) + x[BREP["g"]]
        out[BREP["q"]] = 0.5 * _xi(q) @ (w_m - x[BREP["bw"]] - w[3:6])
        out[BREP["ba"]] = w[6:9]
        out[BREP["bw"]] = w[9:12]
        return out

    def df_dx(x, u):
        a_m, w_m = u[:3], u[3:6]
        q = x[BREP["q"]]
        a = a_m - x[BREP["ba"]]
        out = np.zeros((STATE_DIM, STATE_DIM))
        out[BREP["p"], BREP["v"]] = np.eye(3)
        out[BREP["v"], BREP["q"]] = _rows_drot_dq(q, np.eye(3), np.tile(a, (3, 1)))
        out[BREP["v"], BREP["ba"]] = -quat_to_rot(q)
        out[BREP["v"], BREP["g"]] = np.eye(3)
        out[BREP["q"], BREP["q"]] = 0.5 * _omega(w_m - x[BREP["bw"]])
        out[BREP["q"], BREP["bw"]] = -0.5 * _xi(q)
        return out

    def df_dw(x, u):
        q = x[BREP["q"]]
        out = np.zeros((STATE_DIM, NOISE_DIM))
        out[BREP["v"], 0:3] = -quat_to_rot(q)
        out[BREP["q"], 3:6] = -0.5 * _xi(q)
        out[BREP["ba"], 6:9] = np.eye(3)
        out[BREP["bw"], 9:12] = np.eye(3)
        return out

    def h(x, v, rows):
        rot = quat_to_rot(x[BREP["q"]])
        r_ext = quat_to_rot(x[BREP["q_ext"]])
        res = scan_residuals(rot, r_ext, x[BREP["p"]], x[BREP["p_ext"]], rows)
        if not augmented:
            return res + v
        q, qe, g = x[BREP["q"]], x[BREP["q_ext"]], x[BREP["g"]]
        constraints = np.array([q @ q - 1.0, g @ g - r2, qe @ qe - 1.0])
        return np.concatenate([res, constraints]) + v

    def dh_dx(x, rows):
        q, q_ext = x[BREP["q"]], x[BREP["q_ext"]]
        gr = rows.g @ quat_to_rot(q)
        s = rows.p_f @ quat_to_rot(q_ext).T + x[BREP["p_ext"]]
        n = len(rows.g)
        out = np.zeros((n + extra, STATE_DIM))
        out[:n, BREP["p"]] = rows.g
        out[:n, BREP["q"]] = _rows_drot_dq(q, rows.g, s)
        out[:n, BREP["q_ext"]] = _rows_drot_dq(q_ext, gr, rows.p_f)
        out[:n, BREP["p_ext"]] = gr
        if augmented:
            out[n, BREP["q"]] = 2.0 * q
            out[n + 1, BREP["g"]] = 2.0 * x[BREP["g"]]
            out[n + 2, BREP["q_ext"]] = 2.0 * q_ext
        return out

    return SystemModel(
        manifold=man,
        f=f,
        df_dx=df_dx,
        df_dw=df_dw,
        h=h,
        dh_dx=dh_dx,
    )
