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

import math

import numpy as np

from .filter import SystemModel
from .lidar_inertial import GRAVITY, NOISE_DIM, REP, TAN, TANGENT_DIM, scan_residuals
from .manifolds import Euclidean, compound
from .so3 import so3_log
from .sphere import _basis_stack

# the R^26 layout is read off a compound, as REP is; the model runs on one
# Euclidean(STATE_DIM), which is cheaper per call than the compound
_LAYOUT = compound(*(Euclidean(n) for n in (3, 3, 4, 3, 3, 3, 4, 3)))
BREP = dict(zip(("p", "v", "q", "ba", "bw", "g", "q_ext", "p_ext"), _LAYOUT.rep_slices))
STATE_DIM = _LAYOUT.rep_dim
N_CONSTRAINTS = 3
CONSTRAINT_SIGMA = 1e-3  # pseudo-measurement noise of the constraint rows


def _rot_rows(w, x, y, z, s):
    """The entries of R(q) = (w^2 - v^T v) I + 2 v v^T + 2 w skew(v), row by row
    in one list, for s = w^2 - v^T v, each summed as that sum is, on floats or
    on arrays."""
    w2, xy, xz, yz = 2.0 * w, 2.0 * (x * y), 2.0 * (x * z), 2.0 * (y * z)
    o, d = s * 0.0, w2 * 0.0  # s I off the diagonal, 2 w skew(v) on it
    return [(s + 2.0 * (x * x)) + d, (o + xy) - w2 * z, (o + xz) + w2 * y,
            (o + xy) + w2 * z, (s + 2.0 * (y * y)) + d, (o + yz) - w2 * x,
            (o + xz) - w2 * y, (o + yz) + w2 * x, (s + 2.0 * (z * z)) + d]


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a (not necessarily unit) quaternion, on Python floats."""
    w, x, y, z = q.tolist()
    s = w * w - float(q[1:].dot(q[1:]))  # the sum v @ v takes
    return np.array(_rot_rows(w, x, y, z, s)).reshape(3, 3)


def _quat_to_rot_stack(q: np.ndarray) -> np.ndarray:
    """quat_to_rot of each row of a (..., 4) stack, bit for bit (BENCH_32.json)."""
    v = q[..., 1:]  # q.T reverses the stack's axes, and rows.T restores them
    rows = np.array(_rot_rows(*q.T, (q[..., 0] * q[..., 0] - np.vecdot(v, v)).T))
    return rows.T.reshape(q.shape[:-1] + (3, 3))


def rot_to_quat(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (w >= 0) of a rotation matrix: [cos t, sin(t) half / t]
    for half = so3_log(r) / 2 and t = |half| <= pi/2."""
    half = 0.5 * so3_log(r)
    t = min(float(np.linalg.norm(half)), 0.5 * np.pi)  # rounding past pi/2 would make w < 0
    return np.concatenate([[np.cos(t)], np.sinc(t / np.pi) * half])


def _xi_rows(w, x, y, z):
    """The entries of d(q * [0, w])/dw, 4x3 with q_dot = 0.5 * xi(q) w, row by
    row in one list: -v^T over w I + skew(v), each entry summed as that sum
    is, on floats or on arrays."""
    d, o = w + 0.0, w * 0.0  # w I on and off the diagonal, plus skew(v)'s zero or entry
    return [-x, -y, -z, d, o - z, o + y, o + z, d, o - x, o - y, o + x, d]


def _xi(q: np.ndarray) -> np.ndarray:
    """xi(q) of one quaternion, on Python floats."""
    return np.array(_xi_rows(*q.tolist())).reshape(4, 3)


def _xi_stack(q: np.ndarray) -> np.ndarray:
    """_xi of each row of a (..., 4) stack, bit for bit (BENCH_32.json)."""
    rows = np.array(_xi_rows(*q.T))
    return rows.T.reshape(q.shape[:-1] + (4, 3))


def _omega(w: np.ndarray) -> np.ndarray:
    """d(q * [0, w])/dq: 4x4 right-multiplication matrix, [0, -w^T] over
    [w, -skew(w)], on Python floats."""
    x, y, z = w.tolist()
    return np.array([0.0, -x, -y, -z, x, -0.0, z, -y,
                     y, -z, -0.0, x, z, y, -x, -0.0]).reshape(4, 4)


def _drot_dq(q: np.ndarray) -> np.ndarray:
    """dR(q)/dq, shape (3, 3, 4), entry [i, j, k] = dR_ij/dq_k, of the quadratic
    (non-unit) R(q); each entry is +-2 times a component, on Python floats."""
    w, x, y, z = [2.0 * c for c in q.tolist()]
    return np.array([w, x, -y, -z, -z, y, x, -w, y, z, w, x,
                     z, y, x, w, w, -x, y, -z, -x, -w, z, y,
                     -y, z, -w, x, x, w, z, y, w, -x, -y, z]).reshape(3, 3, 4)


def from_manifold(x36: np.ndarray) -> np.ndarray:
    """The R^26 state of a lidar-inertial manifold-representation state."""
    return np.concatenate([
        rot_to_quat(x36[sl].reshape(3, 3)) if key in ("R", "R_ext") else x36[sl]
        for key, sl in REP.items()
    ])


def to_manifold(x26: np.ndarray) -> np.ndarray:
    """The lidar-inertial manifold representation of a (..., 26) stack, q normalized."""
    def rot(q):  # R of the normalized quaternion, as (..., 9)
        return _quat_to_rot_stack(q / np.sqrt(np.vecdot(q, q))[..., None]).reshape(*q.shape[:-1], 9)
    return np.concatenate([rot(x26[..., sl]) if key in ("q", "q_ext") else x26[..., sl]
                           for key, sl in BREP.items()], axis=-1)


def initial_cov(init_sigma) -> np.ndarray:
    """Map the per-block tangent sigmas (p, v, R, b_a, b_w, g, R_ext, p_ext)
    onto the R^26 state: half the sigma on quaternions and GRAVITY times it on
    gravity, so that for unit q and |g| = GRAVITY tangent_cov maps this prior
    exactly onto the manifold filter's tangent prior."""
    scale = (1.0, 1.0, 0.5, 1.0, 1.0, GRAVITY, 0.5, 1.0)
    var = [(k * s) ** 2 for k, s in zip(scale, init_sigma)]
    return np.diag(np.repeat(var, [sl.stop - sl.start for sl in BREP.values()]))


# tangent_cov's identity blocks, on the blocks that are R^3 in both states
_G_EYE = np.zeros((TANGENT_DIM, STATE_DIM))
for _key in ("p", "v", "ba", "bw", "p_ext"):
    _G_EYE[TAN[_key], BREP[_key]] = np.eye(3)


def tangent_cov(x: np.ndarray, P: np.ndarray) -> np.ndarray:
    """P in the 23-dim lidar-inertial tangent space, of (..., 26) and
    (..., 26, 26) stacks: G P G^T, where
    G = d[to_manifold(x + d) boxminus to_manifold(x)]/dd is 2 xi(q)^T on unit
    quaternions, B(g)^T skew(g) / |g|^2 on gravity and I elsewhere. G drops the
    radial directions, and since boxminus compares rotations, q and -q agree."""
    g = x[..., BREP["g"]]
    G = np.broadcast_to(_G_EYE, x.shape[:-1] + _G_EYE.shape).copy()
    for tan, key in (("R", "q"), ("R_ext", "q_ext")):
        G[..., TAN[tan], BREP[key]] = 2.0 * np.swapaxes(_xi_stack(x[..., BREP[key]]), -1, -2)
    skew_g = np.zeros(g.shape + (3,))
    skew_g[..., [2, 0, 1], [1, 2, 0]], skew_g[..., [1, 2, 0], [2, 0, 1]] = g, -g
    # B^T C-ordered, as sphere_basis(g).T is: the product rounds by its layout
    bt = np.ascontiguousarray(np.swapaxes(_basis_stack(g), -1, -2))
    G[..., TAN["g"], BREP["g"]] = bt @ skew_g / np.vecdot(g, g)[..., None, None]
    return G @ P @ np.swapaxes(G, -1, -2)


def normalize_state(x: np.ndarray) -> np.ndarray:
    """Project q, q_ext, g back onto their constraint sets; P is not touched."""
    out = x.copy()
    for key in ("q", "q_ext"):
        q = out[BREP[key]]
        n = math.sqrt(q.dot(q))  # the sum np.linalg.norm takes
        if n < 1e-12:
            raise FloatingPointError(f"{key} collapsed to zero; cannot normalize")
        q /= n
    g = out[BREP["g"]]
    gn = math.sqrt(g.dot(g))
    if gn < 1e-12:
        raise FloatingPointError("gravity estimate collapsed to zero")
    g *= GRAVITY / gn
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
    # the constant blocks of df_dx and df_dw, which each call copies
    dfx0 = np.zeros((STATE_DIM, STATE_DIM))
    dfx0[BREP["p"], BREP["v"]] = dfx0[BREP["v"], BREP["g"]] = np.eye(3)
    dfw0 = np.zeros((STATE_DIM, NOISE_DIM))
    dfw0[BREP["ba"], 6:9] = dfw0[BREP["bw"], 9:12] = np.eye(3)

    def f(x, u, w):
        a_m, w_m = u[:3], u[3:6]
        q = x[BREP["q"]]
        out = np.zeros(STATE_DIM)
        out[BREP["p"]] = x[BREP["v"]]
        out[BREP["v"]] = quat_to_rot(q).dot(a_m - x[BREP["ba"]] - w[0:3]) + x[BREP["g"]]
        out[BREP["q"]] = (0.5 * _xi(q)).dot(w_m - x[BREP["bw"]] - w[3:6])
        out[BREP["ba"]] = w[6:9]
        out[BREP["bw"]] = w[9:12]
        return out

    def df_dx(x, u):
        a_m, w_m = u[:3], u[3:6]
        q = x[BREP["q"]]
        a = a_m - x[BREP["ba"]]
        out = dfx0.copy()
        out[BREP["v"], BREP["q"]] = a @ _drot_dq(q)  # a stack product; a.dot rounds differently
        out[BREP["v"], BREP["ba"]] = -quat_to_rot(q)
        out[BREP["q"], BREP["q"]] = 0.5 * _omega(w_m - x[BREP["bw"]])
        out[BREP["q"], BREP["bw"]] = -0.5 * _xi(q)
        return out

    def df_dw(x, u):
        q = x[BREP["q"]]
        out = dfw0.copy()
        out[BREP["v"], 0:3] = -quat_to_rot(q)
        out[BREP["q"], 3:6] = -0.5 * _xi(q)
        return out

    def h(x, v, rows):
        rot = quat_to_rot(x[BREP["q"]])
        r_ext = quat_to_rot(x[BREP["q_ext"]])
        res = scan_residuals(rot, r_ext, x[BREP["p"]], x[BREP["p_ext"]], rows)
        if not augmented:
            return res + v
        q, qe, g = x[BREP["q"]], x[BREP["q_ext"]], x[BREP["g"]]
        constraints = np.array([q.dot(q) - 1.0, g.dot(g) - r2, qe.dot(qe) - 1.0])
        return np.concatenate([res, constraints]) + v

    def dh_dx(x, rows):
        q, q_ext = x[BREP["q"]], x[BREP["q_ext"]]
        gr = rows.g.dot(quat_to_rot(q))
        s = rows.p_f.dot(quat_to_rot(q_ext).T) + x[BREP["p_ext"]]
        n = len(rows.g)
        out = np.zeros((n + extra, STATE_DIM))
        out[:n, BREP["p"]] = rows.g
        for key, u, s_rows in (("q", rows.g, s), ("q_ext", gr, rows.p_f)):  # u_i^T d(R s_i)/dq
            t = u.dot(_drot_dq(x[BREP[key]]).reshape(3, 12)).reshape(n, 3, 4)
            out[:n, BREP[key]] = (s_rows[:, None, :] @ t)[:, 0]
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
