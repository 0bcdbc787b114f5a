"""Trial execution, consistency metrics, and plot-ready CSV/JSON output."""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from . import baseline as qb
from .errors import UpdateSolverError
from .filter import FilterState, UpdateConfig, predict, update
from .lidar_inertial import (
    REP,
    STATE_MANIFOLD,
    TAN,
    TANGENT_DIM,
    lidar_inertial_model,
    make_state,
)
from .so3 import so3_log  # noqa: F401  perfbench's tracer wraps so3_log here
from .trajectory import ScenarioConfig, Trajectory, generate_trajectory


@dataclass
class TrialRecord:
    """Everything measured in one filter run on one simulated trajectory: a
    row per state from the initial one to step k_done (K unless the trial
    failed), and the final metrics, the block norms of the last error."""

    times: np.ndarray
    truth: np.ndarray  # (K+1, 36) manifold representation
    est_rep: np.ndarray  # (k_done+1, 36) estimates, manifold rep
    errors: np.ndarray  # (k_done+1, 23) tangent error truth boxminus estimate
    sigma3: np.ndarray  # (k_done+1, 23) 3-sigma envelope from the tangent covariance
    nees: np.ndarray  # (k_done+1,) errors against the tangent covariance
    iterations: List[int]
    final_drift: float
    final_ext_rot_deg: float
    final_ext_pos: float
    failed: bool = False
    failure: str = ""


def _init_state(truth0: np.ndarray, cfg: ScenarioConfig, trial: int):
    """Truth perturbed by a draw from the initial covariance."""
    rng = np.random.default_rng([int(cfg.seed), trial, 1])
    p0 = cfg.init_cov()
    e = rng.standard_normal(TANGENT_DIM) * np.sqrt(np.diag(p0))
    return STATE_MANIFOLD.boxplus(truth0, e), p0


def _nees(err: np.ndarray, p: np.ndarray) -> np.ndarray:
    """NEES err^T p^-1 err of each row of (..., n) errors and (..., n, n)
    covariances p = U^T U, by one batched Cholesky factor and one solve of
    U^T y = err: inf where p has no factor; ValueError on non-finite input."""
    if not (np.isfinite(p).all() and np.isfinite(err).all()):
        raise ValueError("NEES of a non-finite error or covariance")
    try:
        fac = np.linalg.cholesky(p, upper=True)
    except np.linalg.LinAlgError:  # some p has no factor: inf in its row alone
        return np.array([_nees(e, q) for e, q in zip(err, p)]) if p.ndim > 2 else np.inf
    y = np.linalg.solve(np.swapaxes(fac, -1, -2), err[..., None])[..., 0]
    return np.vecdot(y, y)


def run_trial(
    cfg: ScenarioConfig,
    trial: int = 0,
    traj: Optional[Trajectory] = None,
) -> TrialRecord:
    """Run the selected filter over one simulated trajectory.

    Both filters share one loop, which only filters: each step predicts,
    projects, updates, projects and stores x and P. The quaternion baseline
    brings its own model, initial state and covariance, and its projection
    renormalizes the state. After the loop, both filters' errors, 3-sigma
    envelopes, NEES and final metrics are taken from the stored rows in the
    shared 23-dim tangent space, where ``baseline.tangent_cov`` maps the
    baseline's P. A numerical failure in the loop ends the trial as a failed
    record of the steps before it. Any other exception propagates, as does
    any raised after the loop (a ``CutLocusError`` from an antipodal gravity
    error is not a failed trial).
    """
    cfg.validate()
    if traj is None:
        traj = generate_trajectory(cfg, trial)
    man = STATE_MANIFOLD
    x0, p0 = _init_state(traj.truth[0], cfg, trial)
    if cfg.filter == "quat":
        augmented = cfg.baseline_mode == "augmented"
        model = qb.baseline_model(augmented=augmented)
        x0, p0 = qb.from_manifold(x0), qb.initial_cov(cfg.init_sigma)
        project = qb.normalize_state
        r_extra = np.full(qb.N_CONSTRAINTS if augmented else 0, qb.CONSTRAINT_SIGMA**2)
    else:
        model = lidar_inertial_model()
        project = np.asarray  # the manifold state needs no projection: x itself back
        r_extra = np.zeros(0)
    qmat = cfg.process_noise()
    ucfg = UpdateConfig(max_iterations=cfg.nmax)
    state = FilterState(x0, p0)
    noise = {}  # z and R by row count, built once

    k_steps = traj.imu.shape[0]
    xs = np.empty((k_steps + 1,) + x0.shape)
    ps = np.empty((k_steps + 1,) + p0.shape)
    xs[0], ps[0] = x0, p0
    iters: List[int] = []
    failed, failure = False, ""
    k_done = 0
    try:
        for k, rows in enumerate(traj.features):
            state = predict(model, state, traj.imu[k], cfg.dt, qmat)
            state.x = project(state.x)
            if len(rows) not in noise:
                rdiag = np.concatenate([np.full(len(rows), cfg.sigma_feature**2), r_extra])
                noise[len(rows)] = np.zeros(rdiag.size), np.diag(rdiag)
            state, diag = update(model, state, *noise[len(rows)], ctx=rows, config=ucfg)
            state.x = project(state.x)
            iters.append(diag.iterations)
            k_done = k + 1
            xs[k_done], ps[k_done] = state.x, state.P
    except (ArithmeticError, UpdateSolverError) as exc:
        failed, failure = True, f"step {k_done + 1}: {exc}"

    xs, ps = xs[: k_done + 1], ps[: k_done + 1]
    if cfg.filter == "quat":
        xs, ps = qb.to_manifold(xs), qb.tangent_cov(xs, ps)
    errors = man.boxminus(traj.truth[: k_done + 1], xs)
    last = errors[-1]
    return TrialRecord(
        times=traj.times,
        truth=traj.truth,
        est_rep=xs,
        errors=errors,
        sigma3=3.0 * np.sqrt(np.maximum(np.diagonal(ps, axis1=1, axis2=2), 0.0)),
        nees=_nees(errors, ps),
        iterations=iters,
        final_drift=float(np.linalg.norm(last[TAN["p"]])),
        final_ext_rot_deg=float(np.degrees(np.linalg.norm(last[TAN["R_ext"]]))),
        final_ext_pos=float(np.linalg.norm(last[TAN["p_ext"]])),
        failed=failed,
        failure=failure,
    )


def gravity_containment(record: TrialRecord) -> float:
    """Fraction of (step, axis) samples with gravity error inside 3 sigma."""
    err = np.abs(record.errors[:, TAN["g"]])
    env = record.sigma3[:, TAN["g"]]
    return float(np.mean(err <= env))


def summarize(records: List[TrialRecord]) -> Dict[str, float]:
    """Aggregate trial records into the four summary metrics; an infinite
    NEES (a covariance with no Cholesky factor) makes mean_nees infinite."""
    ok = [r for r in records if not r.failed]
    if not ok:
        return {
            "mean_nees": float("nan"),
            "containment_rate": 0.0,
            "final_drift_m": float("nan"),
            "iterations_mean": float("nan"),
        }
    nees = np.concatenate([r.nees for r in ok])
    iters = np.concatenate([np.asarray(r.iterations, dtype=float) for r in ok])
    return {
        "mean_nees": float(np.mean(nees)),
        "containment_rate": float(np.mean([gravity_containment(r) for r in ok])),
        "final_drift_m": float(np.mean([r.final_drift for r in ok])),
        "iterations_mean": float(np.mean(iters)) if iters.size else 0.0,
    }


# ---------------------------------------------------------------------------
# output files

_CSV_HEADER = "step,t,block,component,truth,estimate,error,sigma3"


def trial_csv_rows(record: TrialRecord) -> List[str]:
    """Per-step, per-tangent-component rows; curved blocks are charted.

    Rotation blocks are logged as rotation vectors; the gravity block is
    charted relative to the trial's initial gravity estimate so truth and
    estimate share one 2-dim chart.
    """
    man = STATE_MANIFOLD
    z3, eye = np.zeros(3), np.eye(3)
    origin = make_state(z3, z3, eye, z3, z3, record.est_rep[0][REP["g"]], eye, z3)
    est_t = man.boxminus(record.est_rep, origin)
    truth_t = man.boxminus(record.truth[: len(est_t)], origin)
    rows = [_CSV_HEADER]
    for k in range(len(est_t)):
        t = record.times[k]
        for name, sl in TAN.items():
            for c in range(sl.stop - sl.start):
                i = sl.start + c
                rows.append(
                    "%d,%.17g,%s,%d,%.17g,%.17g,%.17g,%.17g"
                    % (k, t, name, c, truth_t[k, i], est_t[k, i],
                       record.errors[k, i], record.sigma3[k, i])
                )
    return rows


def write_trial_csv(record: TrialRecord, path) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(trial_csv_rows(record)) + "\n")


def write_summary_json(summary: Dict, path) -> None:
    """Write strict JSON: a non-finite metric (no successful trial) is null."""
    summary = {k: None if isinstance(v, float) and not np.isfinite(v) else v
               for k, v in summary.items()}
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
