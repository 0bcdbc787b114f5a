"""IMU-propagated lidar odometry model with online extrinsic calibration.

State blocks, in order: position p, velocity v, attitude R (IMU body to
global), accelerometer bias b_a, gyroscope bias b_w, gravity g (fixed-norm
sphere point), lidar-to-IMU rotation R_ext and translation p_ext. Inputs
are raw IMU readings u = [a_m, w_m]; process noise w = [n_a, n_w, n_ba,
n_bw] (white measurement noise on the IMU plus bias random walks).

Measurements are the distances of scanned points to known planes, one row
each (an edge is two planes, see edge_features); the measured value is
identically zero and all information enters through h and its Jacobians.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, List, NamedTuple, Sequence

import numpy as np

from .errors import ContractViolationError, DimensionError
from .filter import SystemModel
from .manifolds import Compound, Euclidean, SO3, Sphere2, compound
from .so3 import cross_rows, skew
from .sphere import sphere_basis

GRAVITY = 9.81
# state block names, in the order of the parts of state_manifold()
BLOCKS = ("p", "v", "R", "ba", "bw", "g", "R_ext", "p_ext")
NOISE_DIM = 12


def _check_unit(u: np.ndarray) -> None:
    # np.linalg.norm's dot and sqrt; a NaN length fails the <=
    if not abs(math.sqrt(u.dot(u)) - 1.0) <= 1e-9:
        raise ContractViolationError("feature direction must be a unit vector")


@dataclass(frozen=True, slots=True)
class PlaneFeature:
    """One residual row: a scanned point against a plane of the global map.

    ``p_f`` is the point in the lidar frame, ``u_dir`` the unit plane
    normal and ``q`` a point on the plane; the row is the point's signed
    distance to the plane. An edge is two such rows (see edge_features).
    """

    kind: ClassVar[str] = "plane"  # every row is a plane row; perfbench counts rows by it
    p_f: np.ndarray
    u_dir: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        _check_unit(self.u_dir)


def edge_features(p_f: np.ndarray, u_dir: np.ndarray, q: np.ndarray) -> List[PlaneFeature]:
    """The two rows of a point against the edge through q along unit u_dir:
    its distances to the planes through the edge with normals sphere_basis(u)^T,
    whose squared sum is the point's squared distance to the line."""
    _check_unit(u_dir)
    return [PlaneFeature(p_f, n, q) for n in sphere_basis(u_dir).T]


def state_manifold() -> Compound:
    """The compound state manifold, one part per name in BLOCKS: the only
    place the state layout is written down; REP, TAN and CTRL are read off it."""
    return compound(
        Euclidean(3),  # p
        Euclidean(3),  # v
        SO3(),  # R
        Euclidean(3),  # b_a
        Euclidean(3),  # b_w
        Sphere2(GRAVITY),  # g
        SO3(),  # R_ext
        Euclidean(3),  # p_ext
    )


_LAYOUT = state_manifold()
REP = dict(zip(BLOCKS, _LAYOUT.rep_slices))
TAN = dict(zip(BLOCKS, _LAYOUT.tan_slices))  # the gravity error is 2-dimensional
CTRL = dict(zip(BLOCKS, _LAYOUT.ctrl_slices))  # rows of f, the oplus velocity
TANGENT_DIM = _LAYOUT.dim


def make_state(p, v, R, ba, bw, g, R_ext, p_ext) -> np.ndarray:
    """Pack block values (rotations as 3x3 matrices) into the flat vector."""
    blocks = (p, v, R, ba, bw, g, R_ext, p_ext)
    return np.concatenate([np.asarray(b, dtype=float).reshape(-1) for b in blocks])


class ScanRows(NamedTuple):
    """One update's features stacked once into residual rows: row i holds
    its feature's point ``p_f[i]``, anchor ``q[i]`` and unit normal ``g[i]``."""

    p_f: np.ndarray  # (n, 3), n residual rows
    q: np.ndarray  # (n, 3)
    g: np.ndarray  # (n, 3)


def scan_rows(features: Sequence[PlaneFeature]) -> ScanRows:
    """Stack a feature list into the measurement context of one update."""
    if not features:
        raise DimensionError("measurement update needs at least one feature")
    return ScanRows(
        p_f=np.array([ft.p_f for ft in features]),
        q=np.array([ft.q for ft in features]),
        g=np.array([ft.u_dir for ft in features]),
    )


def scan_residuals(rot, r_ext, p, p_ext, rows: ScanRows) -> np.ndarray:
    """Residual rows g_i (R (R_ext p_f + p_ext) + p - q) of a scan."""
    w = (rows.p_f @ r_ext.T + p_ext) @ rot.T + p - rows.q
    return np.einsum("ij,ij->i", rows.g, w)


def lidar_inertial_model() -> SystemModel:
    """SystemModel for the IMU process and the scan's plane rows.

    The per-update measurement context is the ScanRows of the update's
    features (see scan_rows), so the caller's diagonal R is len(rows.g)
    square. Isotropic point noise of variance s^2 is exactly s^2 per row:
    an edge's two rows g R R_ext share one point and are orthonormal.
    """
    man = state_manifold()

    def f(x, u, w):
        a_m, w_m = u[:3], u[3:6]
        rot = x[REP["R"]].reshape(3, 3)
        out = np.zeros(man.control_dim)
        out[CTRL["p"]] = x[REP["v"]]
        out[CTRL["v"]] = rot @ (a_m - x[REP["ba"]] - w[0:3]) + x[REP["g"]]
        out[CTRL["R"]] = w_m - x[REP["bw"]] - w[3:6]
        out[CTRL["ba"]] = w[6:9]
        out[CTRL["bw"]] = w[9:12]
        return out

    def df_dx(x, u):
        a_m = u[:3]
        rot = x[REP["R"]].reshape(3, 3)
        g = x[REP["g"]]
        out = np.zeros((man.control_dim, TANGENT_DIM))
        out[CTRL["p"], TAN["v"]] = np.eye(3)
        out[CTRL["v"], TAN["R"]] = -rot @ skew(a_m - x[REP["ba"]])
        out[CTRL["v"], TAN["ba"]] = -rot
        # d(boxplus(g, dg))/d(dg) at 0
        out[CTRL["v"], TAN["g"]] = -skew(g) @ sphere_basis(g)
        out[CTRL["R"], TAN["bw"]] = -np.eye(3)
        return out

    def df_dw(x, u):
        rot = x[REP["R"]].reshape(3, 3)
        out = np.zeros((man.control_dim, NOISE_DIM))
        out[CTRL["v"], 0:3] = -rot
        out[CTRL["R"], 3:6] = -np.eye(3)
        out[CTRL["ba"], 6:9] = np.eye(3)
        out[CTRL["bw"], 9:12] = np.eye(3)
        return out

    def h(x, v, rows):
        rot = x[REP["R"]].reshape(3, 3)
        r_ext = x[REP["R_ext"]].reshape(3, 3)
        return scan_residuals(rot, r_ext, x[REP["p"]], x[REP["p_ext"]], rows) + v

    def dh_dx(x, rows):
        rot = x[REP["R"]].reshape(3, 3)
        r_ext = x[REP["R_ext"]].reshape(3, 3)
        s = rows.p_f @ r_ext.T + x[REP["p_ext"]]  # feature points in the body frame
        a = rows.g @ rot  # row blocks g R
        out = np.zeros((len(rows.g), TANGENT_DIM))
        out[:, TAN["p"]] = rows.g
        out[:, TAN["R"]] = cross_rows(s, a)  # rows -g R skew(s)
        out[:, TAN["R_ext"]] = cross_rows(rows.p_f, a @ r_ext)
        out[:, TAN["p_ext"]] = a
        return out

    return SystemModel(
        manifold=man,
        f=f,
        df_dx=df_dx,
        df_dw=df_dw,
        h=h,
        dh_dx=dh_dx,
    )
