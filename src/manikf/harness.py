"""Trial execution, consistency metrics, and plot-ready CSV/JSON output."""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
import scipy.linalg

from . import baseline as qb
from .errors import UpdateSolverError
from .filter import FilterState, UpdateConfig, predict, update
from .lidar_inertial import (
    REP,
    TAN,
    TANGENT_DIM,
    lidar_inertial_model,
    make_state,
    scan_rows,
    state_manifold,
)
from .so3 import so3_log
from .trajectory import ScenarioConfig, Trajectory, generate_trajectory


@dataclass
class TrialRecord:
    """Everything measured in one filter run on one simulated trajectory."""

    cfg: ScenarioConfig
    trial: int
    times: np.ndarray
    truth: np.ndarray  # (K+1, 36) manifold representation
    errors: np.ndarray  # (K+1, 23) tangent error truth boxminus estimate
    sigma3: np.ndarray  # (K+1, 23) 3-sigma envelope from the tangent covariance
    nees: np.ndarray  # (K+1,) errors against the tangent covariance
    iterations: List[int]
    final_drift: float
    final_ext_rot_deg: float
    final_ext_pos: float
    failed: bool = False
    failure: str = ""
    est_rep: Optional[np.ndarray] = None  # (K+1, 36) estimates, manifold rep


def _init_state(man, truth0: np.ndarray, cfg: ScenarioConfig, trial: int):
    """Truth perturbed by a draw from the initial covariance."""
    rng = np.random.default_rng([int(cfg.seed) ^ trial, 1])
    p0 = cfg.init_cov()
    e = rng.standard_normal(TANGENT_DIM) * np.sqrt(np.diag(p0))
    return man.boxplus(truth0, e), p0


def _nees(err: np.ndarray, p: np.ndarray) -> float:
    """err^T p^-1 err through LAPACK's upper Cholesky, as cho_factor/cho_solve
    take it; inf if p is not positive definite, ValueError if p or err is
    not finite (the check_finite those wrappers make)."""
    if not (np.isfinite(p).all() and np.isfinite(err).all()):
        raise ValueError("NEES of a non-finite error or covariance")
    fac, info = scipy.linalg.lapack.dpotrf(p, clean=0)
    if info != 0:
        return float("inf")  # failure to factor counts as an inconsistency event
    return float(err @ scipy.linalg.lapack.dpotrs(fac, err)[0])


def _identity(x: np.ndarray) -> np.ndarray:
    return x


def _own_cov(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    return p  # the manifold filter's P is already the tangent covariance


def _sigma3(p: np.ndarray) -> np.ndarray:
    return 3.0 * np.sqrt(np.maximum(np.diag(p), 0.0))


def run_trial(
    cfg: ScenarioConfig,
    trial: int = 0,
    traj: Optional[Trajectory] = None,
    keep_estimates: bool = False,
) -> TrialRecord:
    """Run the selected filter over one simulated trajectory.

    Both filters share one loop. The quaternion baseline brings its own
    model, initial state and covariance, and renormalizes its state after
    every predict and update. Both filters' errors, 3-sigma envelopes, NEES
    and final metrics are taken in the shared 23-dim tangent space, where
    ``baseline.tangent_cov`` maps the baseline's P. Numerical failures end
    the trial as a failed record; any other exception propagates.
    """
    cfg.validate()
    if traj is None:
        traj = generate_trajectory(cfg, trial)
    man = state_manifold()
    x0, p0 = _init_state(man, traj.truth[0], cfg, trial)
    if cfg.filter == "quat":
        augmented = cfg.baseline_mode == "augmented"
        model = qb.baseline_model(augmented=augmented)
        x0, p0 = qb.from_manifold(x0), qb.initial_cov(cfg.init_sigma)
        to_manifold, project, tangent_cov = qb.to_manifold, qb.normalize_state, qb.tangent_cov
        r_extra = np.full(qb.N_CONSTRAINTS if augmented else 0, qb.CONSTRAINT_SIGMA**2)
    else:
        model = lidar_inertial_model()
        to_manifold, project, tangent_cov = _identity, _identity, _own_cov
        r_extra = np.zeros(0)
    qmat = cfg.process_noise()
    ucfg = UpdateConfig(max_iterations=cfg.nmax)
    state = FilterState(x0, p0)

    k_steps = traj.imu.shape[0]
    errors = np.zeros((k_steps + 1, TANGENT_DIM))
    sigma3 = np.zeros((k_steps + 1, TANGENT_DIM))
    nees = np.zeros(k_steps + 1)
    iters: List[int] = []
    est = np.zeros((k_steps + 1, man.rep_dim)) if keep_estimates else None
    failed, failure = False, ""

    def record(k: int) -> None:
        xm = to_manifold(state.x)
        errors[k] = man.boxminus(traj.truth[k], xm)
        p = tangent_cov(state.x, state.P)
        sigma3[k], nees[k] = _sigma3(p), _nees(errors[k], p)
        if est is not None:
            est[k] = xm

    record(0)
    k_done = 0
    try:
        for k in range(k_steps):
            state = predict(model, state, traj.imu[k], cfg.dt, qmat)
            state.x = project(state.x)
            rows = scan_rows(traj.features[k])
            z = np.zeros(len(rows.g) + r_extra.size)
            rdiag = np.concatenate([np.full(len(rows.g), cfg.sigma_feature**2), r_extra])
            state, diag = update(model, state, z, np.diag(rdiag), ctx=rows, config=ucfg)
            state.x = project(state.x)
            iters.append(diag.iterations)
            record(k + 1)
            k_done = k + 1
    except (ArithmeticError, UpdateSolverError) as exc:
        failed, failure = True, f"step {k_done + 1}: {exc}"
        errors, sigma3, nees = errors[: k_done + 1], sigma3[: k_done + 1], nees[: k_done + 1]

    xm, truth = to_manifold(state.x), traj.truth[-1]
    rot_err = so3_log(xm[REP["R_ext"]].reshape(3, 3).T @ truth[REP["R_ext"]].reshape(3, 3))
    return TrialRecord(
        cfg=cfg,
        trial=trial,
        times=traj.times,
        truth=traj.truth,
        errors=errors,
        sigma3=sigma3,
        nees=nees,
        iterations=iters,
        final_drift=float(np.linalg.norm(truth[REP["p"]] - xm[REP["p"]])),
        final_ext_rot_deg=float(np.degrees(np.linalg.norm(rot_err))),
        final_ext_pos=float(np.linalg.norm(truth[REP["p_ext"]] - xm[REP["p_ext"]])),
        failed=failed,
        failure=failure,
        est_rep=est,
    )


def gravity_containment(record: TrialRecord) -> float:
    """Fraction of (step, axis) samples with gravity error inside 3 sigma."""
    err = np.abs(record.errors[:, TAN["g"]])
    env = record.sigma3[:, TAN["g"]]
    return float(np.mean(err <= env))


def summarize(records: List[TrialRecord]) -> Dict[str, float]:
    """Aggregate trial records into the four summary metrics."""
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
        "mean_nees": float(np.mean(nees[np.isfinite(nees)])),
        "containment_rate": float(np.mean([gravity_containment(r) for r in ok])),
        "final_drift_m": float(np.mean([r.final_drift for r in ok])),
        "iterations_mean": float(np.mean(iters)) if iters.size else 0.0,
    }


def run_monte_carlo(cfg: ScenarioConfig, trials: int) -> Dict:
    """Independent trials with per-trial RNG streams; deterministic reduce."""
    if trials < 1:
        raise ValueError("need at least one trial")
    records = [run_trial(cfg, trial=i) for i in range(trials)]
    summary = summarize(records)
    summary["trials"] = trials
    summary["failures"] = sum(int(r.failed) for r in records)
    return {"summary": summary, "records": records}


# ---------------------------------------------------------------------------
# output files

_CSV_HEADER = "step,t,block,component,truth,estimate,error,sigma3"


def trial_csv_rows(record: TrialRecord) -> List[str]:
    """Per-step, per-tangent-component rows; curved blocks are charted.

    Rotation blocks are logged as rotation vectors; the gravity block is
    charted relative to the trial's initial gravity estimate so truth and
    estimate share one 2-dim chart.
    """
    if record.est_rep is None:
        raise ValueError("record was collected without keep_estimates")
    man = state_manifold()
    z3, eye = np.zeros(3), np.eye(3)
    origin = make_state(z3, z3, eye, z3, z3, record.est_rep[0][REP["g"]], eye, z3)
    rows = [_CSV_HEADER]
    for k in range(record.errors.shape[0]):
        truth_t = man.boxminus(record.truth[k], origin)
        est_t = man.boxminus(record.est_rep[k], origin)
        t = record.times[k]
        for name, sl in TAN.items():
            for c in range(sl.stop - sl.start):
                i = sl.start + c
                rows.append(
                    "%d,%.*g,%s,%d,%.*g,%.*g,%.*g,%.*g"
                    % (
                        k, 17, t, name, c,
                        17, truth_t[i], 17, est_t[i],
                        17, record.errors[k, i], 17, record.sigma3[k, i],
                    )
                )
    return rows


def write_trial_csv(record: TrialRecord, path) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(trial_csv_rows(record)) + "\n")


def write_summary_json(summary: Dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
