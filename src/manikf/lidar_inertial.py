"""IMU-propagated lidar odometry model with online extrinsic calibration.

State blocks, in order: position p, velocity v, attitude R (IMU body to
global), accelerometer bias b_a, gyroscope bias b_w, gravity g (fixed-norm
sphere point), lidar-to-IMU rotation R_ext and translation p_ext. Inputs
are raw IMU readings u = [a_m, w_m]; process noise w = [n_a, n_w, n_ba,
n_bw] (white measurement noise on the IMU plus bias random walks).

Measurements are the distances of scanned points to known planes, one
ScanRows row each (an edge is two rows, one per normal in sphere_basis(u)^T
of its unit direction u); the measured value is identically zero and all
information enters through h and its Jacobians.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterator, List

import numpy as np

from .errors import ContractViolationError, DimensionError
from .filter import SystemModel
from .manifolds import Euclidean, SO3, Sphere2, compound
from .so3 import cross_rows, skew
from .sphere import sphere_basis

GRAVITY = 9.81
# state block names, in the order of the parts of STATE_MANIFOLD
BLOCKS = ("p", "v", "R", "ba", "bw", "g", "R_ext", "p_ext")
NOISE_DIM = 12


@dataclass(frozen=True, slots=True)
class PlaneFeature:
    """A view of one ScanRows row, as iterating the scan yields it: the
    point ``p_f`` in the lidar frame, the unit plane normal ``u_dir`` and a
    point ``q`` on the plane. ScanRows has checked the row, and nothing in
    the library takes a PlaneFeature as input."""

    kind: ClassVar[str] = "plane"  # every row is a plane row; perfbench counts rows by it
    p_f: np.ndarray
    u_dir: np.ndarray
    q: np.ndarray


# The compound state manifold, one part per name in BLOCKS: the only place
# the state layout is written down; REP, TAN and CTRL are read off it. It
# holds only the layout, so every model and trial shares it.
STATE_MANIFOLD = compound(
    Euclidean(3),  # p
    Euclidean(3),  # v
    SO3(),  # R
    Euclidean(3),  # b_a
    Euclidean(3),  # b_w
    Sphere2(),  # g, of norm GRAVITY
    SO3(),  # R_ext
    Euclidean(3),  # p_ext
)
REP = dict(zip(BLOCKS, STATE_MANIFOLD.rep_slices))
TAN = dict(zip(BLOCKS, STATE_MANIFOLD.tan_slices))  # the gravity error is 2-dimensional
CTRL = dict(zip(BLOCKS, STATE_MANIFOLD.ctrl_slices))  # rows of f, the oplus velocity
TANGENT_DIM = STATE_MANIFOLD.dim


def make_state(p, v, R, ba, bw, g, R_ext, p_ext) -> np.ndarray:
    """Pack block values (rotations as 3x3 matrices) into the flat vector."""
    blocks = (p, v, R, ba, bw, g, R_ext, p_ext)
    return np.concatenate([np.asarray(b, dtype=float).reshape(-1) for b in blocks])


@dataclass(frozen=True, slots=True, eq=False)
class ScanRows:
    """One update's residual rows as arrays: row i is the point ``p_f[i]``
    against the plane through ``q[i]`` with unit normal ``g[i]``. It is the
    only measurement input, checked once here: the three arrays are (n, 3)
    and every normal is within 1e-9 of unit length. ``steps`` checks a whole
    trajectory's scans at once. Iterating yields the rows as PlaneFeatures,
    views of these arrays."""

    p_f: np.ndarray  # (n, 3), n residual rows
    q: np.ndarray  # (n, 3)
    g: np.ndarray  # (n, 3)

    def __post_init__(self):
        if not self.p_f.shape == self.q.shape == self.g.shape == self.g.shape[:1] + (3,):
            shapes = (self.p_f.shape, self.q.shape, self.g.shape)
            raise DimensionError(f"p_f, q and g must be (n, 3) with one n, got {shapes}")
        # | |g_i| - 1 | in one array, so a whole trajectory's rows need one temporary;
        # a NaN or infinite length fails the <=
        err = np.einsum("ij,ij->i", self.g, self.g)
        np.sqrt(err, out=err)
        err -= 1.0
        if not np.all(np.abs(err, out=err) <= 1e-9):
            raise ContractViolationError("feature direction must be a unit vector")

    @classmethod
    def steps(cls, p_f: np.ndarray, q: np.ndarray, g: np.ndarray) -> List[ScanRows]:
        """The K per-step ScanRows of (K, m, 3) stacks, step k's rows being
        views of the stacks' slices [k]. The rows are checked once, all K m
        of them in one ScanRows: the unit check takes each row alone, so every
        row gets the verdict its own step's ScanRows would give it. Then the
        stacks become read-only, so no row changes after its check."""
        if not p_f.shape == q.shape == g.shape == g.shape[:2] + (3,):
            shapes = (p_f.shape, q.shape, g.shape)
            raise DimensionError(f"p_f, q and g must be (K, m, 3) with one K and m, got {shapes}")
        cls(p_f.reshape(-1, 3), q.reshape(-1, 3), g.reshape(-1, 3))
        for a in (p_f, q, g):
            a.flags.writeable = False
        # the slots' own setters: the frozen __init__ would check each step again
        new, set_p_f, set_q, set_g = object.__new__, cls.p_f.__set__, cls.q.__set__, cls.g.__set__
        out = []
        for p_f_k, q_k, g_k in zip(p_f, q, g):
            step = new(cls)
            set_p_f(step, p_f_k)
            set_q(step, q_k)
            set_g(step, g_k)
            out.append(step)
        return out

    def __len__(self) -> int:
        return len(self.g)

    def __iter__(self) -> Iterator[PlaneFeature]:
        return map(PlaneFeature, self.p_f, self.g, self.q)


def scan_residuals(rot, r_ext, p, p_ext, rows: ScanRows) -> np.ndarray:
    """Residual rows g_i (R (R_ext p_f + p_ext) + p - q) of a scan."""
    w = (rows.p_f.dot(r_ext.T) + p_ext).dot(rot.T) + p - rows.q
    return np.einsum("ij,ij->i", rows.g, w)


def lidar_inertial_model() -> SystemModel:
    """SystemModel for the IMU process and the scan's plane rows.

    The per-update measurement context is the step's ScanRows, so the
    caller's diagonal R is len(rows) square. Isotropic point noise of
    variance s^2 is exactly s^2 per row: an edge's two rows g R R_ext share
    one point and are orthonormal.
    """
    man = STATE_MANIFOLD
    # the constant blocks of df_dx and df_dw, which each call copies
    dfx0 = np.zeros((man.control_dim, TANGENT_DIM))
    dfx0[CTRL["p"], TAN["v"]] = np.eye(3)
    dfx0[CTRL["R"], TAN["bw"]] = -np.eye(3)
    dfw0 = np.zeros((man.control_dim, NOISE_DIM))
    dfw0[CTRL["R"], 3:6] = -np.eye(3)
    dfw0[CTRL["ba"], 6:9] = dfw0[CTRL["bw"], 9:12] = np.eye(3)

    def f(x, u, w):
        a_m, w_m = u[:3], u[3:6]
        rot = x[REP["R"]].reshape(3, 3)
        out = np.zeros(man.control_dim)
        out[CTRL["p"]] = x[REP["v"]]
        out[CTRL["v"]] = rot.dot(a_m - x[REP["ba"]] - w[0:3]) + x[REP["g"]]
        out[CTRL["R"]] = w_m - x[REP["bw"]] - w[3:6]
        out[CTRL["ba"]] = w[6:9]
        out[CTRL["bw"]] = w[9:12]
        return out

    def df_dx(x, u):
        a_m = u[:3]
        rot = x[REP["R"]].reshape(3, 3)
        g = x[REP["g"]]
        out = dfx0.copy()
        out[CTRL["v"], TAN["R"]] = (-rot).dot(skew(a_m - x[REP["ba"]]))
        out[CTRL["v"], TAN["ba"]] = -rot
        # d(boxplus(g, dg))/d(dg) at 0
        out[CTRL["v"], TAN["g"]] = (-skew(g)).dot(sphere_basis(g))
        return out

    def df_dw(x, u):
        rot = x[REP["R"]].reshape(3, 3)
        out = dfw0.copy()
        out[CTRL["v"], 0:3] = -rot
        return out

    def h(x, v, rows):
        rot = x[REP["R"]].reshape(3, 3)
        r_ext = x[REP["R_ext"]].reshape(3, 3)
        return scan_residuals(rot, r_ext, x[REP["p"]], x[REP["p_ext"]], rows) + v

    def dh_dx(x, rows):
        rot = x[REP["R"]].reshape(3, 3)
        r_ext = x[REP["R_ext"]].reshape(3, 3)
        s = rows.p_f.dot(r_ext.T) + x[REP["p_ext"]]  # feature points in the body frame
        a = rows.g.dot(rot)  # row blocks g R
        m = len(rows.g)
        # rows -g R skew(s), then -g R R_ext skew(p_f), from one call
        c = cross_rows(np.concatenate((s, rows.p_f)), np.concatenate((a, a.dot(r_ext))))
        out = np.zeros((m, TANGENT_DIM))
        out[:, TAN["p"]] = rows.g
        out[:, TAN["R"]] = c[:m]
        out[:, TAN["R_ext"]] = c[m:]
        out[:, TAN["p_ext"]] = a
        return out

    return SystemModel(manifold=man, f=f, df_dx=df_dx, df_dw=df_dw, h=h, dh_dx=dh_dx)
