"""Shared fixtures and oracles for the test suite: random lidar-inertial
states and scans, a linear-Gaussian model with its textbook Kalman filter,
and finite-difference Jacobians."""
import numpy as np

from manikf.filter import SystemModel
from manikf.lidar_inertial import GRAVITY, ScanRows, make_state
from manikf.manifolds import Euclidean
from manikf.so3 import so3_exp
from manikf.sphere import sphere_basis
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


def scan_of(triples):
    """The ScanRows of one (p_f, normal, q) triple per row."""
    p_f, g, q = (np.array([t[i] for t in triples], dtype=float).reshape(-1, 3)
                 for i in range(3))
    return ScanRows(p_f=p_f, q=q, g=g)


def stack_scans(*scans):
    """One ScanRows of the scans' rows, in order."""
    return ScanRows(*(np.concatenate([getattr(s, k) for s in scans]) for k in ("p_f", "q", "g")))


def random_scan(rng, n_plane, n_edge=0):
    """Rows of n_plane planes, then of n_edge edges, each plane or edge at a
    random point and anchor. An edge along unit u is two rows sharing its
    point and anchor, with normals sphere_basis(u)^T: their squared sum is
    the squared distance to the line."""
    triples = []
    for i in range(n_plane + n_edge):
        u = with_norm(rng, 3)
        p_f, q = 2.0 * rng.standard_normal(3), 3.0 * rng.standard_normal(3)
        triples += [(p_f, n, q) for n in ([u] if i < n_plane else sphere_basis(u).T)]
    return scan_of(triples)


def linear_model(a, c):
    """x' = x + dt*(A x + u + w), z = C x + v on Euclidean(n), A being n x n."""
    n = len(a)
    return SystemModel(
        manifold=Euclidean(n),
        f=lambda x, u, w: a @ x + u + w,
        df_dx=lambda x, u: a,
        df_dw=lambda x, u: np.eye(n),
        h=lambda x, v, ctx: c @ x + v,
        dh_dx=lambda x, ctx: c,
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


def _fd_chart(man, step, a, y, eps):
    """Central differences of boxminus(step(a'), y) in a' at a, as fd_jacobian
    takes them, with the 2n points' boxminus taken as one stack."""
    e = eps * np.eye(len(a))
    d = man.boxminus(np.array([step(aa) for aa in np.concatenate([a + e, a - e])]), y)
    return (d[:len(a)] - d[len(a):]).T / (2.0 * eps)


def fd_diff_u(man, x, u, eps=1e-6):
    """FD oracle of diff_u(x, u): boxminus(boxplus(x, u'), y) in u' at u, y fixed."""
    return _fd_chart(man, lambda uu: man.boxplus(x, uu), u, man.boxplus(x, u), eps)


def fd_step_pair(man, x, v, eps=1e-6):
    """FD oracle of diff_v(x, v): G_x and G_v of y = oplus(x, v), as the
    central differences of boxminus(oplus(boxplus(x, e), v), y) in e at 0
    and of boxminus(oplus(x, v'), y) in v' at v."""
    y = man.oplus(x, v)
    return (_fd_chart(man, lambda e: man.oplus(man.boxplus(x, e), v), np.zeros(man.dim), y, eps),
            _fd_chart(man, lambda vv: man.oplus(x, vv), v, y, eps))


def assert_additive_noise(h, x, ctx, n):
    """h(x, v) - h(x, 0) = v, for a fixed v with n distinct entries."""
    v = np.linspace(-1.0, 1.0, n)
    assert_close(h(x, v, ctx) - h(x, np.zeros(n), ctx), v, tol=1e-12, floor=1e-14)


def assert_close(a, b, tol=1e-5, floor=1e-7, msg=""):
    """Relative tolerance with an absolute floor, elementwise on the max norm."""
    a, b = np.asarray(a), np.asarray(b)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), floor / tol)
    err = np.max(np.abs(a - b))
    assert err <= tol * scale, f"{msg} max err {err:.3e} > {tol * scale:.3e}"
