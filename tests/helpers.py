"""Shared fixtures and oracles for the test suite: random lidar-inertial
states and scans, a linear-Gaussian model with its textbook Kalman filter,
and finite-difference Jacobians."""
import numpy as np

from manikf.filter import SystemModel
from manikf.lidar_inertial import GRAVITY, PlaneFeature, make_state
from manikf.manifolds import Euclidean
from manikf.so3 import so3_exp
from manifold_samples import with_norm


def random_li_state(rng):
    """A lidar-inertial state in general position; |g| = GRAVITY."""
    g = with_norm(rng, 3, GRAVITY)
    return make_state(
        p=rng.standard_normal(3),
        v=rng.standard_normal(3),
        R=so3_exp(rng.standard_normal(3)),
        ba=0.05 * rng.standard_normal(3),
        bw=0.01 * rng.standard_normal(3),
        g=g,
        R_ext=so3_exp(0.3 * rng.standard_normal(3)),
        p_ext=0.2 * rng.standard_normal(3),
    )


def random_features(rng, n_plane, n_edge=0):
    """n_plane planes, then n_edge edges, each at a random point and anchor."""
    feats = []
    for kind, count in (("plane", n_plane), ("edge", n_edge)):
        for _ in range(count):
            u = with_norm(rng, 3)
            feats.append(PlaneFeature(
                p_f=2.0 * rng.standard_normal(3), u_dir=u,
                q=3.0 * rng.standard_normal(3), kind=kind,
            ))
    return feats


def linear_model(a, c, n, m):
    """x' = x + dt*(A x + u + w), z = C x + v on Euclidean(n)."""
    return SystemModel(
        manifold=Euclidean(n),
        f=lambda x, u, w: a @ x + u + w,
        df_dx=lambda x, u: a,
        df_dw=lambda x, u: np.eye(n),
        h=lambda x, v, ctx: c @ x + v,
        dh_dx=lambda x, ctx: c,
        dh_dv=lambda x, ctx: np.eye(m),
    )


class TextbookKF:
    """Plain linear-Gaussian Kalman filter, straight out of the book."""

    def __init__(self, x, p):
        self.x = np.array(x, dtype=float)
        self.p = np.array(p, dtype=float)

    def predict(self, f, q):
        self.x = f @ self.x
        self.p = f @ self.p @ f.T + q

    def update(self, z, h, r):
        s = h @ self.p @ h.T + r
        k = self.p @ h.T @ np.linalg.inv(s)
        self.x = self.x + k @ (z - h @ self.x)
        self.p = (np.eye(len(self.x)) - k @ h) @ self.p


def fd_jacobian(fun, x, eps=1e-6):
    """Central finite differences of fun: R^n -> R^m at x."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fun(x))
    out = np.zeros((f0.size, x.size))
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = eps
        out[:, i] = (np.asarray(fun(x + e)) - np.asarray(fun(x - e))) / (2.0 * eps)
    return out


def fd_diff_u(man, x, u, v, eps=1e-6):
    """FD of boxminus(oplus(boxplus(x, u'), v), y) in u' at u, y fixed."""
    y = man.oplus(man.boxplus(x, u), v)
    return fd_jacobian(
        lambda uu: man.boxminus(man.oplus(man.boxplus(x, uu), v), y), u, eps
    )


def fd_diff_v(man, x, u, v, eps=1e-6):
    """FD of boxminus(oplus(boxplus(x, u), v'), y) in v' at v, y fixed."""
    y = man.oplus(man.boxplus(x, u), v)
    return fd_jacobian(
        lambda vv: man.boxminus(man.oplus(man.boxplus(x, u), vv), y), v, eps
    )


def fd_step_pair(man, x, v, eps=1e-6):
    """FD oracle of diff_v(x, v): (G_x, G_v) of the step oplus(x, v)."""
    zero = np.zeros(man.dim)
    return fd_diff_u(man, x, zero, v, eps), fd_diff_v(man, x, zero, v, eps)


def assert_close(a, b, tol=1e-5, floor=1e-7, msg=""):
    """Relative tolerance with an absolute floor, elementwise on the max norm."""
    a, b = np.asarray(a), np.asarray(b)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), floor / tol)
    err = np.max(np.abs(a - b))
    assert err <= tol * scale, f"{msg} max err {err:.3e} > {tol * scale:.3e}"
