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
from .errors import ContractViolationError, DimensionError


class Manifold:
    """Interface shared by all state manifolds. The public operators are defined
    here only: each checks shapes and calls a subclass's unchecked kernel,
    ``_boxminus``, ``_diff_u``, ``_diff_v`` or ``_validate``."""

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

    def validate_point(self, x: np.ndarray) -> None:
        self._check(x)
        self._validate(x)

    def _validate(self, x: np.ndarray) -> None:
        """Raise ContractViolationError unless the (rep_dim,) point x is on the manifold."""

    def _check(self, x: np.ndarray, w: np.ndarray | None = None, n: int = 0,
               what: str = "") -> None:
        # operators run in the filter's hot loop: check dimensions only;
        # validate_point also checks the (orthonormality/norm) invariants
        if x.shape != (self.rep_dim,):
            raise DimensionError(f"point must have shape ({self.rep_dim},), got {x.shape}")
        if w is not None and w.shape != (n,):
            raise DimensionError(f"{what} must have shape ({n},), got {w.shape}")


class Euclidean(Manifold):
    """R^n with vector addition as both retraction and velocity action."""

    def __init__(self, n: int):
        if n < 1:
            raise DimensionError("Euclidean dimension must be positive")
        self.dim = self.rep_dim = self.control_dim = n

    def _boxminus(self, y, x):
        return y - x

    def _diff_u(self, x, u):
        return x + u, np.eye(self.dim)

    def _diff_v(self, x, v):
        return self._diff_u(x, v) + (np.eye(self.dim),)

    def __repr__(self):
        return f"Euclidean({self.dim})"


class SO3(Manifold):
    """Rotation matrices, stored row-major as 9-vectors; tangent is R^3."""

    dim = 3
    rep_dim = 9
    control_dim = 3

    @staticmethod
    def to_matrix(x: np.ndarray) -> np.ndarray:
        return x.reshape(3, 3)

    def _boxminus(self, y, x):
        rx, ry = (a.reshape(a.shape[:-1] + (3, 3)) for a in (x, y))
        return so3.so3_log(np.swapaxes(rx, -1, -2) @ ry)

    def _diff_u(self, x, u):
        return (self.to_matrix(x) @ so3.so3_exp(u)).reshape(9), so3.mat_a(u).T

    def _diff_v(self, x, v):
        # G_x = Exp(-v) = Exp(v)^T bit for bit: _rodrigues negates only its a terms
        e = so3.so3_exp(v)
        return (self.to_matrix(x) @ e).reshape(9), e.T, so3.mat_a(v).T

    def _validate(self, x):
        so3.check_rotation(self.to_matrix(x))

    def __repr__(self):
        return "SO3()"


class Sphere2(Manifold):
    """Sphere of radius r in R^3; tangent is R^2, velocities act by rotation.

    No chart operator reads the radius; only ``validate_point`` does. Chain
    the derivative B(z)^T skew(z) / r^2 of boxminus(., z) at z with that of
    z = R x, by skew(z) R = R skew(x), skew(x)^2 = x x^T - r^2 I, B(z)^T z = 0
    and, with A = ``so3.mat_a``, Exp(w) A(w)^T = A(w). At v = 0, w = B(x) u
    and R = Exp(w) give diff_u's J = B(z)^T A(w) B(x); at u = 0, R = Exp(v) and
    C = B(z)^T R give diff_v's (C B(x), C A(v)^T). Both return z = R x.
    """

    dim = 2
    rep_dim = 3
    control_dim = 3

    def __init__(self, radius: float):
        if not radius > 0.0:
            raise ContractViolationError("sphere radius must be positive")
        self.radius = float(radius)

    def _boxminus(self, y, x):
        return sphere.sphere_boxminus(y, x)

    def _diff_u(self, x, u):
        b = sphere.sphere_basis(x)
        w = b @ u
        z = so3.so3_exp(w) @ x
        return z, sphere.sphere_basis(z).T @ so3.mat_a(w) @ b

    def _diff_v(self, x, v):
        rv = so3.so3_exp(v)
        z = rv @ x
        c = sphere.sphere_basis(z).T @ rv
        return z, c @ sphere.sphere_basis(x), c @ so3.mat_a(v).T

    def _validate(self, x):
        sphere.check_sphere(x, self.radius)

    def __repr__(self):
        return f"Sphere2({self.radius})"


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
        return np.concatenate([p._boxminus(y[..., rs], x[..., rs])
                               for p, rs in zip(self.parts, self.rep_slices)], axis=-1)

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

    def _validate(self, x):
        for p, rs, _, _ in self._table:  # a Euclidean part has no invariant
            p._validate(x[rs])

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
