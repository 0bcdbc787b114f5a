"""State manifolds and the chart operators the filter is written against.

Every manifold stores points as flat numpy vectors of length ``rep_dim`` so
that compound states are plain concatenations. ``Manifold``'s operators check
shapes once and call the unchecked kernels each manifold implements
(``_boxminus``, ``_diff_u``, ``_diff_v``):

* ``boxminus(y, x)`` -- chart coordinates of y in the chart centred at x;
  y and x may be (..., rep_dim) stacks that broadcast; the rest take one point.
* ``diff_u(x, u)`` -- (y, J) for y = boxplus(x, u), a tangent increment u
  (dim ``dim``) retracted at x, and J = d[boxminus(boxplus(x, u + d), y)]/dd
  at d = 0 (on SO(3), the right Jacobian A(u)^T): the update's iterate and
  the J that carries the prior's chart into the iterate's.
* ``diff_v(x, v)`` -- (y, G_x, G_v) for y = oplus(x, v), an exogenous
  velocity v (dim ``control_dim``) applied at x, and G_x, G_v the derivatives
  at d = 0 of boxminus(oplus(boxplus(x, d), v), y) and
  boxminus(oplus(x, v + d), y). On R^n and SO(3) oplus is boxplus; on the
  sphere it is the ambient rotation action.

The paper's boxplus and oplus are the points of the two Jacobians:
``diff_u(x, u)[0]`` and ``diff_v(x, v)[0]``. A ``Compound`` calls its parts'
kernels, so each point is checked once, where it enters the chart layer. The
filter calls only ``diff_u`` and ``diff_v``; boxplus, boxminus and oplus
serve the harness (its initial state and errors) and the tests.
"""
from __future__ import annotations

import numpy as np

from . import so3, sphere
from .errors import DimensionError

_EYE3 = np.eye(3)
_EYE3.flags.writeable = False  # SO(3)'s G_x and G_v at v = 0, returned to every caller


class Manifold:
    """Interface shared by all state manifolds. The public operators are defined
    here only: each checks shapes and calls a subclass's unchecked kernel,
    ``_boxminus``, ``_diff_u`` or ``_diff_v``."""

    dim: int  # tangent dimension
    rep_dim: int  # length of the flat point vector
    control_dim: int  # dimension of the oplus velocity

    def boxplus(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.diff_u(x, u)[0]

    def boxminus(self, y: np.ndarray, x: np.ndarray) -> np.ndarray:
        if y.shape[-1:] != (self.rep_dim,) or x.shape[-1:] != (self.rep_dim,):
            raise DimensionError(f"points must have shape (..., {self.rep_dim})")
        return self._boxminus(y, x)

    def oplus(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.diff_v(x, v)[0]

    def diff_u(self, x: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self._check(x, u, self.dim, "tangent")
        return self._diff_u(x, u)

    def diff_v(self, x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        self._check(x, v, self.control_dim, "velocity")
        return self._diff_v(x, v)

    def _check(self, x: np.ndarray, w: np.ndarray, n: int, what: str) -> None:
        # operators run in the filter's hot loop: check dimensions only; diff_u
        # and diff_v keep each point on its manifold by construction
        if x.shape != (self.rep_dim,):
            raise DimensionError(f"point must have shape ({self.rep_dim},), got {x.shape}")
        if w.shape != (n,):
            raise DimensionError(f"{what} must have shape ({n},), got {w.shape}")


class Euclidean(Manifold):
    """R^n with vector addition as both retraction and velocity action."""

    def __init__(self, n: int):
        if n < 1:
            raise DimensionError("Euclidean dimension must be positive")
        self.dim = self.rep_dim = self.control_dim = n
        self._eye = np.eye(n)  # both Jacobians, which each call copies

    def _boxminus(self, y, x):
        return y - x

    def _diff_u(self, x, u):
        return x + u, self._eye.copy()

    def _diff_v(self, x, v):
        return x + v, self._eye.copy(), self._eye.copy()

    def __repr__(self):
        return f"Euclidean({self.dim})"


class SO3(Manifold):
    """Rotation matrices, stored row-major as 9-vectors; tangent is R^3.

    ``diff_v`` at v = 0, where Exp and A are exactly I, returns a copy of x
    and a read-only I for G_x and G_v without building them: a process model
    gives a static rotation (an extrinsic) an exactly zero velocity.
    """

    dim = 3
    rep_dim = 9
    control_dim = 3

    @staticmethod
    def to_matrix(x: np.ndarray) -> np.ndarray:
        return x.reshape(3, 3)

    def _boxminus(self, y, x):
        rx = x.reshape(x.shape[:-1] + (3, 3))
        return so3.so3_log(rx.swapaxes(-1, -2) @ y.reshape(y.shape[:-1] + (3, 3)))

    def _diff_u(self, x, u):
        return self.to_matrix(x).dot(so3.so3_exp(u)).reshape(9), so3.mat_a(u).T

    def _diff_v(self, x, v):
        if not any(v.tolist()):  # every entry +-0: x Exp(0) = x
            return x.copy(), _EYE3, _EYE3
        # G_x = Exp(-v) = Exp(v)^T bit for bit: _rodrigues negates only its a terms
        e = so3.so3_exp(v)
        return self.to_matrix(x).dot(e).reshape(9), e.T, so3.mat_a(v).T

    def __repr__(self):
        return "SO3()"


class Sphere2(Manifold):
    """A sphere in R^3; tangent is R^2, velocities act by rotation.

    Each operator keeps the norm r = |x| of the point it is given, so the
    manifold stores no radius. Chain the derivative B(z)^T skew(z) / r^2 of
    boxminus(., z) at z with that of z = R x, by skew(z) R = R skew(x),
    skew(x)^2 = x x^T - r^2 I, B(z)^T z = 0 and, with A = ``so3.mat_a``,
    Exp(w) A(w)^T = A(w). At v = 0, w = B(x) u and R = Exp(w) give diff_u's
    J = B(z)^T A(w) B(x); at u = 0, R = Exp(v) and C = B(z)^T R give
    diff_v's (C B(x), C A(v)^T). Both return z = R x. At v = 0, where
    R = A(v) = I, ``diff_v`` returns a copy of x and (C C^T, C) with
    C = B(x)^T, the same bits, from one basis and no Exp or A.
    """

    dim = 2
    rep_dim = 3
    control_dim = 3

    def _boxminus(self, y, x):
        return sphere.sphere_boxminus(y, x)

    def _diff_u(self, x, u):
        b = sphere.sphere_basis(x)
        w = b.dot(u)
        z = so3.so3_exp(w).dot(x)
        return z, sphere.sphere_basis(z).T.dot(so3.mat_a(w)).dot(b)

    def _diff_v(self, x, v):
        if not any(v.tolist()):
            c = sphere.sphere_basis(x).T  # a read-only view, C-ordered as B(z)^T R is
            return x.copy(), c.dot(c.T), c
        rv = so3.so3_exp(v)
        z = rv.dot(x)
        c = sphere.sphere_basis(z).T.dot(rv)
        return z, c.dot(sphere.sphere_basis(x)), c.dot(so3.mat_a(v).T)

    def __repr__(self):
        return "Sphere2()"


class Compound(Manifold):
    """Cartesian product of manifolds; all operators act blockwise.

    Points, tangents, and velocities are the concatenations of the parts'
    vectors; the chart Jacobians are block diagonal. The ``Euclidean`` parts
    are one index block, on which the operators are vector + and - and the
    Jacobians the identity; only the curved parts are called one by one.
    """

    def __init__(self, parts):
        self.parts = tuple(parts)
        if not self.parts:
            raise DimensionError("compound manifold needs at least one part")
        self.dim = sum(p.dim for p in self.parts)
        self.rep_dim = sum(p.rep_dim for p in self.parts)
        self.control_dim = sum(p.control_dim for p in self.parts)
        self.rep_slices = _slices(p.rep_dim for p in self.parts)
        self.tan_slices = _slices(p.dim for p in self.parts)
        self.ctrl_slices = _slices(p.control_dim for p in self.parts)
        flat = [type(p) is Euclidean for p in self.parts]
        # rep, tangent and velocity indices of the Euclidean parts, in step
        self._er, self._et, self._ec = (
            _indices(sl for sl, f in zip(slices, flat) if f)
            for slices in (self.rep_slices, self.tan_slices, self.ctrl_slices)
        )
        # (part, rep slice, tangent slice, velocity slice) of the curved parts
        table = zip(self.parts, self.rep_slices, self.tan_slices, self.ctrl_slices)
        self._table = tuple(row for row, f in zip(table, flat) if not f)
        # the Jacobians' constant part, I on the Euclidean indices, which each call copies
        self._eye_u = np.zeros((self.dim, self.dim))
        self._eye_v = np.zeros((self.dim, self.control_dim))
        self._eye_u[self._et, self._et] = self._eye_v[self._et, self._ec] = 1.0

    # Manifold's checked operators, named here because perfbench's tracer wraps these five by name
    boxplus, boxminus, oplus, diff_u, diff_v = (
        Manifold.boxplus, Manifold.boxminus, Manifold.oplus, Manifold.diff_u, Manifold.diff_v)

    def _boxminus(self, y, x):
        d = y - x  # read on the Euclidean indices only
        out = np.empty(d.shape[:-1] + (self.dim,))
        out[..., self._et] = d[..., self._er]
        for p, rs, ts, _ in self._table:
            out[..., ts] = p._boxminus(y[..., rs], x[..., rs])
        return out

    def _diff_u(self, x, u):
        y, out = x.copy(), self._eye_u.copy()
        y[self._er] += u[self._et]
        for p, rs, ts, _ in self._table:
            y[rs], out[ts, ts] = p._diff_u(x[rs], u[ts])
        return y, out

    def _diff_v(self, x, v):
        y, gx, gv = x.copy(), self._eye_u.copy(), self._eye_v.copy()
        y[self._er] += v[self._ec]
        for p, rs, ts, cs in self._table:
            y[rs], gx[ts, ts], gv[ts, cs] = p._diff_v(x[rs], v[cs])
        return y, gx, gv

    def __repr__(self):
        return "Compound(" + ", ".join(repr(p) for p in self.parts) + ")"


def _slices(dims) -> tuple:
    out, start = [], 0
    for d in dims:
        out.append(slice(start, start + d))
        start += d
    return tuple(out)


def _indices(slices) -> np.ndarray:
    return np.array([i for sl in slices for i in range(sl.start, sl.stop)], dtype=np.intp)


def compound(*parts: Manifold) -> Compound:
    """Product manifold of the given parts, in order."""
    return Compound(parts)
