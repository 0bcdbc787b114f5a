"""Iterated error-state Kalman filter over an arbitrary state manifold.

The system is the discrete recursion

    x_{k+1} = oplus(x_k, dt * f(x_k, u_k, w_k)),    w_k ~ N(0, Q)
    z_k     = h(x_k, 0) + v_k,                      v_k ~ N(0, R), R diagonal

with the state on any :class:`~.manifolds.Manifold` and Euclidean
measurements. The covariance lives in the tangent space at the current
estimate; every routine that moves the estimate also transports the
covariance through the corresponding chart Jacobian (diff_u / diff_v).
Every product here has 1-D or 2-D operands and is taken by ``ndarray.dot``,
which calls the same BLAS routine as ``@`` with less dispatch and gives the
same bits (tests/test_filter.py checks both on the step's shapes); ``@``
stays for (..., m, n) stacks, on which ``dot`` means something else.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

import numpy as np
import scipy.linalg

from .errors import DimensionError, UpdateSolverError
from .manifolds import Manifold


@dataclass
class SystemModel:
    """Process and measurement maps with their analytic Jacobians.

    ``f(x, u, w)`` returns the velocity vector (length
    ``manifold.control_dim``); ``df_dx``/``df_dw`` are its Jacobians at
    w = 0 with respect to the state error and the noise, and the process
    noise w has as many entries as ``df_dw`` has columns. ``h(x, v, ctx)``
    returns the predicted (Euclidean) measurement; ``ctx`` is opaque
    per-update context for measurement models whose dimension changes step
    to step. The noise is additive, h(x, v) = h(x, 0) + v, one variance per
    row in ``update``'s diagonal R, and ``dh_dx`` is the Jacobian at v = 0.
    No model sets ``dh_dv``: perfbench's tracer still replaces it by name.
    A process-only model leaves the measurement maps ``None``.
    """

    manifold: Manifold
    f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    df_dx: Callable[[np.ndarray, np.ndarray], np.ndarray]
    df_dw: Callable[[np.ndarray, np.ndarray], np.ndarray]
    h: Optional[Callable[[np.ndarray, np.ndarray, Any], np.ndarray]] = None
    dh_dx: Optional[Callable[[np.ndarray, Any], np.ndarray]] = None
    dh_dv: Optional[Callable[[np.ndarray, Any], np.ndarray]] = None


@dataclass
class FilterState:
    """Estimate x (flat point vector) and tangent-space covariance P."""

    x: np.ndarray
    P: np.ndarray

    def copy(self) -> "FilterState":
        return FilterState(self.x.copy(), self.P.copy())


# the largest distance to the fixed point, under the posterior, that the update accepts
CONVERGENCE_TOL = 1e-2


@dataclass
class UpdateConfig:
    """Iteration cap of the iterated update.

    ``max_iterations`` is the highest allowed iteration index: the gain is
    computed for indices 0..max_iterations, so 0 gives the plain (single
    linearization) error-state extended update. The update stops earlier
    once h is close to linear where it stepped (see ``update``). A negative
    or non-integer cap raises ValueError.
    """

    max_iterations: int = 4

    def __post_init__(self) -> None:
        m = self.max_iterations
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 0:
            raise ValueError(f"max_iterations must be a non-negative integer, got {m!r}")


@dataclass
class UpdateDiagnostics:
    """How the update stopped: ``iterations`` is the index of the last
    linearization, and ``converged`` is False when the cap stopped it."""

    iterations: int = 0
    converged: bool = False


def predict(
    model: SystemModel,
    state: FilterState,
    u: np.ndarray,
    dt: float,
    Q: np.ndarray,
) -> FilterState:
    """One propagation step; returns a new FilterState.

    The mean moves along ``dt * f`` with zero noise; the covariance goes
    through F_x = G_x + dt * G_f * df_dx and F_w = dt * G_f * df_dw, so the
    retraction and the velocity action are linearized jointly; diff_v returns
    the step x' = oplus(x, dx) with its pair of chart Jacobians (G_x, G_f).
    Q must be square with the column count of df_dw, else DimensionError.
    """
    man = model.manifold
    df_dw = np.asarray(model.df_dw(state.x, u), dtype=float)
    q = df_dw.shape[1]
    if Q.shape != (q, q):
        raise DimensionError(f"Q must be {(q, q)}, got {Q.shape}")
    dx = dt * np.asarray(model.f(state.x, u, np.zeros(q)), dtype=float)
    if not np.isfinite(dx).all():
        raise FloatingPointError("process model returned non-finite velocity")
    x_next, gx, gf = man.diff_v(state.x, dx)
    fx = gx + (dt * gf).dot(np.asarray(model.df_dx(state.x, u), dtype=float))
    fw = (dt * gf).dot(df_dw)
    p = fx.dot(state.P).dot(fx.T) + fw.dot(Q).dot(fw.T)
    return FilterState(x_next, 0.5 * (p + p.T))


def update(
    model: SystemModel,
    state: FilterState,
    z: np.ndarray,
    R: np.ndarray,
    ctx: Any = None,
    config: Optional[UpdateConfig] = None,
) -> Tuple[FilterState, UpdateDiagnostics]:
    """Iterated measurement update; returns (new FilterState, diagnostics).

    Gauss-Newton on the MAP cost |L_P^-1 d|^2 + |w (z - h(x (+) d))|^2, with
    P = L_P L_P^T, w = 1/sigma and d in the prior's chart. Every iterate is
    x_j = boxplus(x, L_P y_j), with y_j in whitened prior coordinates and
    y_0 = 0; one diff_u(x, L_P y_j) gives x_j and the J_j that carries the
    prior into x_j's chart (J_0 = I). The gain is in square-root information
    form, so nothing m x m is formed: with B = J_j L_P, A = (w H) B and
    M = I + A^T A, the next iterate is y' = M^-1 A^T (w r + A y_j), the
    innovation form rewritten by the push-through identity, and the posterior
    is J' L_P M^-1 L_P^T J'^T in the chart at the final estimate x'.
    After each step below the cap, h is evaluated once at x': with the
    whitened linearization error eps = w (r' - r) + A (y' - y_j), the next
    step is about B M^-1 A^T eps, of length |L_M^-1 A^T eps| under the
    posterior. It stops once that is below CONVERGENCE_TOL / 2, a rule free
    of the state's units under which a linear h stops at iteration 0.
    An R that is not len(z) square and diagonal, a non-positive variance or
    a ``z`` not shaped like h's output raises DimensionError; a P or an M
    without a finite Cholesky factor, or a non-finite residual or Jacobian,
    raises UpdateSolverError.
    """
    if config is None:
        config = UpdateConfig()
    if R.shape != (len(z), len(z)):
        raise DimensionError(f"R must be {len(z)} x {len(z)}, one row per z row, got {R.shape}")
    var = R.diagonal()
    # counting bools takes a quarter of the time; NaN, inf and subnormals count, +-0.0 not
    if not (var > 0.0).all() or np.count_nonzero(R != 0.0) != var.size:
        raise DimensionError("R must be diagonal with positive variances")
    man = model.manifold
    n = man.dim
    try:
        l_prior = np.linalg.cholesky(state.P)
        if not np.isfinite(l_prior).all():  # numpy factors a NaN P without raising
            raise np.linalg.LinAlgError("non-finite factor")
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(state.P)) if np.isfinite(state.P).all() else np.inf
        raise UpdateSolverError("prior covariance could not be factorized", cond) from exc
    w = 1.0 / np.sqrt(var)
    vzero = np.zeros(var.size)

    def residual(x: np.ndarray) -> np.ndarray:
        hx = np.asarray(model.h(x, vzero, ctx), dtype=float)
        if hx.shape != z.shape:
            raise DimensionError(f"z must have shape {hx.shape}, got {z.shape}")
        r = z - hx
        if not np.isfinite(r).all():
            raise UpdateSolverError("measurement model returned non-finite values")
        return r

    # y and B = J L_P at the prior, where y = 0 and J = I
    xj, r, y, b, converged = state.x, residual(state.x), np.zeros(n), l_prior, False
    for j in range(config.max_iterations + 1):
        h_mat = np.asarray(model.dh_dx(xj, ctx), dtype=float)
        if not np.isfinite(h_mat).all():
            raise UpdateSolverError("measurement model returned non-finite values")
        a = (w[:, None] * h_mat).dot(b)
        m_mat = a.T.dot(a)
        m_mat.ravel()[:: n + 1] += 1.0  # M = I + A^T A, its diagonal raised in place
        # LAPACK's own Cholesky, as cho_factor/cho_solve call it, without their
        # wrapper cost; the factor's finiteness check replaces their check_finite
        m_fac, info = scipy.linalg.lapack.dpotrf(m_mat, lower=1, clean=0)
        if info != 0 or not np.isfinite(m_fac).all():
            raise UpdateSolverError("gain matrix I + A^T A could not be factorized")
        y_next = scipy.linalg.lapack.dpotrs(m_fac, a.T.dot(w * r + a.dot(y)), lower=1)[0]
        x_next, jmat = man.diff_u(state.x, l_prior.dot(y_next))
        if j == config.max_iterations:
            break
        # eps = w (h(x_j) + H dxo - h(x')), the step in x_j's chart being
        # dxo = B (y' - y); half the tolerance, as eps leaves out how H and J turn
        r_next = residual(x_next)
        e = scipy.linalg.blas.dtrsv(m_fac, a.T.dot(w * (r_next - r) + a.dot(y_next - y)), lower=1)
        converged = float(e.dot(e)) < (0.5 * CONVERGENCE_TOL) ** 2
        if converged:
            break
        xj, r, y, b = x_next, r_next, y_next, jmat.dot(l_prior)

    # P+ = J' L_P M^-1 L_P^T J'^T = G G^T with G = J' (L_M^-1 L_P^T)^T.
    # BLAS trsm, as LAPACK trtrs (solve_triangular) stalled for ms with 2 BLAS threads.
    # numpy takes g.dot(g.T) by syrk, so P+ is exactly symmetric as it stands.
    g = jmat.dot(scipy.linalg.blas.dtrsm(1.0, m_fac, l_prior.T, lower=1).T)
    return FilterState(x_next, g.dot(g.T)), UpdateDiagnostics(j, converged)
