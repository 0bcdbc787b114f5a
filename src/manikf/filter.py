"""Iterated error-state Kalman filter over an arbitrary state manifold.

The system is the discrete recursion

    x_{k+1} = oplus(x_k, dt * f(x_k, u_k, w_k)),    w_k ~ N(0, Q)
    z_k     = h(x_k, v_k),                          v_k ~ N(0, R)

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
    to step; ``dh_dx``/``dh_dv`` are the Jacobians at v = 0. The measurement
    noise v has the length of the R passed to ``update``. A process-only
    model leaves the measurement maps ``None``.
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


# the update stops once a correction step is shorter than this
CONVERGENCE_TOL = 1e-6


@dataclass
class UpdateConfig:
    """Iteration cap of the iterated update.

    ``max_iterations`` is the highest allowed iteration index: the gain is
    computed for indices 0..max_iterations, so 0 gives the plain (single
    linearization) error-state extended update.
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
    retraction and the velocity action are linearized jointly; G_x and G_f
    are the chart Jacobians diff_u/diff_v of the step x' = oplus(x, dx).
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
    zero_u = np.zeros(man.dim)
    gx, gf = man.diff_u(state.x, zero_u, dx), man.diff_v(state.x, zero_u, dx)
    fx = gx + dt * gf @ np.asarray(model.df_dx(state.x, u), dtype=float)
    fw = dt * gf @ df_dw
    p = fx @ state.P @ fx.T + fw @ Q @ fw.T
    return FilterState(man.oplus(state.x, dx), 0.5 * (p + p.T))


def _spd_solve(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    try:
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), b)
    except scipy.linalg.LinAlgError as exc:
        raise UpdateSolverError(
            f"{what} could not be factorized", condition=float(np.linalg.cond(a))
        ) from exc


def update(
    model: SystemModel,
    state: FilterState,
    z: np.ndarray,
    R: np.ndarray,
    ctx: Any = None,
    config: Optional[UpdateConfig] = None,
) -> Tuple[FilterState, UpdateDiagnostics]:
    """Iterated measurement update; returns (new FilterState, diagnostics).

    Each iterate relinearizes h at the current estimate while keeping the
    prior fixed; the prior covariance is re-expressed in the chart at the
    iterate through J before the gain is formed. After the loop the
    posterior covariance is transported into the chart at the final
    estimate through L. J and L are both diff_u at zero velocity. The
    measurement noise v has the length of R. A ``z`` that does not have the
    shape of h's output, or a non-square R, raises DimensionError; a
    non-finite residual or Jacobian raises UpdateSolverError before
    anything is factorized.
    """
    if config is None:
        config = UpdateConfig()
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise DimensionError(f"R must be square, got {R.shape}")
    man = model.manifold
    n = man.dim
    x_prior, p_prior = state.x, state.P
    vzero = np.zeros(R.shape[0])
    zero_c = np.zeros(man.control_dim)
    eye_n = np.eye(n)
    diag = UpdateDiagnostics()

    xj = x_prior
    j = -1
    while True:
        j += 1
        hx = np.asarray(model.h(xj, vzero, ctx), dtype=float)
        if hx.shape != z.shape:
            raise DimensionError(f"z must have shape {hx.shape}, got {z.shape}")
        r = z - hx
        h_mat = np.asarray(model.dh_dx(xj, ctx), dtype=float)
        d_mat = np.asarray(model.dh_dv(xj, ctx), dtype=float)
        r_bar = d_mat @ R @ d_mat.T
        if not (np.isfinite(r).all() and np.isfinite(h_mat).all() and np.isfinite(r_bar).all()):
            raise UpdateSolverError("measurement model returned non-finite values")
        if xj is x_prior:
            dxj, jmat, pj = np.zeros(n), eye_n, p_prior
        else:
            dxj = man.boxminus(xj, x_prior)
            jmat = man.diff_u(x_prior, dxj, zero_c)
            pj = jmat @ p_prior @ jmat.T
        s = h_mat @ pj @ h_mat.T + r_bar
        k = _spd_solve(s, h_mat @ pj, "innovation matrix").T
        dxo = -jmat @ dxj + k @ (r + h_mat @ jmat @ dxj)
        x_next = man.boxplus(xj, dxo)
        if float(np.linalg.norm(dxo)) < CONVERGENCE_TOL:
            diag.converged = True
        if diag.converged or j >= config.max_iterations:
            break
        xj = x_next

    p_plus = (eye_n - k @ h_mat) @ pj
    lmat = man.diff_u(xj, dxo, zero_c)
    p_final = lmat @ p_plus @ lmat.T
    diag.iterations = j
    return FilterState(x_next, 0.5 * (p_final + p_final.T)), diag
