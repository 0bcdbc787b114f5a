"""Iterated error-state Kalman filter over an arbitrary state manifold.

The system is the discrete recursion

    x_{k+1} = oplus(x_k, dt * f(x_k, u_k, w_k)),    w_k ~ N(0, Q)
    z_k     = h(x_k, 0) + v_k,                      v_k ~ N(0, R), R diagonal

with the state on any :class:`~.manifolds.Manifold` and Euclidean
measurements. The covariance lives in the tangent space at the current
estimate; every routine that moves the estimate also transports the
covariance through the corresponding chart Jacobian (diff_u / diff_v).
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


# the update stops once a step's length under the posterior, sqrt(dxo^T P+^-1 dxo), is below this
CONVERGENCE_TOL = 1e-2


@dataclass
class UpdateConfig:
    """Iteration cap of the iterated update.

    ``max_iterations`` is the highest allowed iteration index: the gain is
    computed for indices 0..max_iterations, so 0 gives the plain (single
    linearization) error-state extended update. The update stops earlier
    once a step is short under the posterior (see ``update``).
    """

    max_iterations: int = 4


@dataclass
class UpdateDiagnostics:
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
    retraction and the velocity action are linearized jointly; (G_x, G_f) is
    the pair of chart Jacobians diff_v returns for the step x' = oplus(x, dx).
    Q must be square with the column count of df_dw, else DimensionError.
    """
    man = model.manifold
    df_dw = np.asarray(model.df_dw(state.x, u), dtype=float)
    q = df_dw.shape[1]
    if Q.shape != (q, q):
        raise DimensionError(f"Q must be {(q, q)}, got {Q.shape}")
    dx = dt * np.asarray(model.f(state.x, u, np.zeros(q)), dtype=float)
    if not np.all(np.isfinite(dx)):
        raise FloatingPointError("process model returned non-finite velocity")
    gx, gf = man.diff_v(state.x, dx)
    fx = gx + dt * gf @ np.asarray(model.df_dx(state.x, u), dtype=float)
    fw = dt * gf @ df_dw
    p = fx @ state.P @ fx.T + fw @ Q @ fw.T
    return FilterState(man.oplus(state.x, dx), 0.5 * (p + p.T))


def update(
    model: SystemModel,
    state: FilterState,
    z: np.ndarray,
    R: np.ndarray,
    ctx: Any = None,
    config: Optional[UpdateConfig] = None,
) -> Tuple[FilterState, UpdateDiagnostics]:
    """Iterated measurement update; returns (new FilterState, diagnostics).

    Each iterate relinearizes h at the current estimate x_j, keeping the
    prior fixed: J = diff_u(x, dxj), dxj = boxminus(x_j, x), re-expresses
    it in the chart at x_j, and L = diff_u(x_j, dxo) moves the posterior
    into the chart at the final estimate. The gain is in square-root
    information form, so nothing m x m is formed: with P = L_P L_P^T,
    B = J L_P, w = 1/sigma, A = (w H) B and M = I + A^T A, the step is
    dxo = -J dxj + B M^-1 A^T (w r + (w H) J dxj) and the posterior is
    B M^-1 B^T: the innovation form rewritten by the push-through identity.
    It stops once dxo^T P+^-1 dxo < CONVERGENCE_TOL^2, P+ = B M^-1 B^T being
    the posterior at the iterate (a rule free of the state's units), taken
    as v^T M v with v = B^-1 dxo = y - L_P^-1 dxj and y = M^-1 A^T (...).
    An R that is not len(z) square and diagonal, a non-positive variance or
    a ``z`` not shaped like h's output raises DimensionError; a P or an M
    without a finite Cholesky factor, or a non-finite residual or Jacobian,
    raises UpdateSolverError.
    """
    if config is None:
        config = UpdateConfig()
    if R.shape != (len(z), len(z)):
        raise DimensionError(f"R must be {len(z)} x {len(z)}, one row per z row, got {R.shape}")
    var = np.diagonal(R)
    if not (var > 0.0).all() or np.count_nonzero(R) != var.size:
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
    diag = UpdateDiagnostics()

    xj = state.x
    j = -1
    while True:
        j += 1
        hx = np.asarray(model.h(xj, vzero, ctx), dtype=float)
        if hx.shape != z.shape:
            raise DimensionError(f"z must have shape {hx.shape}, got {z.shape}")
        r = z - hx
        h_mat = np.asarray(model.dh_dx(xj, ctx), dtype=float)
        if not (np.isfinite(r).all() and np.isfinite(h_mat).all()):
            raise UpdateSolverError("measurement model returned non-finite values")
        if xj is state.x:
            jdx, b = np.zeros(n), l_prior
        else:
            dxj = man.boxminus(xj, state.x)
            jmat = man.diff_u(state.x, dxj)
            jdx, b = jmat @ dxj, jmat @ l_prior
        wh = w[:, None] * h_mat
        a = wh @ b
        m_mat = np.eye(n) + a.T @ a
        # LAPACK's own Cholesky, as cho_factor/cho_solve call it, without their
        # wrapper cost; the factor's finiteness check replaces their check_finite
        m_fac, info = scipy.linalg.lapack.dpotrf(m_mat, lower=1, clean=0)
        if info != 0 or not np.isfinite(m_fac).all():
            raise UpdateSolverError("gain matrix I + A^T A could not be factorized")
        y = scipy.linalg.lapack.dpotrs(m_fac, a.T @ (w * r + wh @ jdx), lower=1)[0]
        dxo = b @ y - jdx
        x_next = man.boxplus(xj, dxo)
        # v^T M v, not |L_M^T v|^2: OpenBLAS runs trmv on 2 threads even at n = 23
        v = y if xj is state.x else y - scipy.linalg.blas.dtrsv(l_prior, dxj, lower=1)
        diag.converged = float(v @ m_mat @ v) < CONVERGENCE_TOL * CONVERGENCE_TOL
        if diag.converged or j >= config.max_iterations:
            break
        xj = x_next

    # P+ = B M^-1 B^T = C^T C with C = L_M^-1 B^T; L moves it to the chart at x_next.
    # BLAS trsm, as LAPACK trtrs (solve_triangular) stalled for ms with 2 BLAS threads.
    g = man.diff_u(xj, dxo) @ scipy.linalg.blas.dtrsm(1.0, m_fac, b.T, lower=1).T
    p_final = g @ g.T
    diag.iterations = j
    return FilterState(x_next, 0.5 * (p_final + p_final.T)), diag
