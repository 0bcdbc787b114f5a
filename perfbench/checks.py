"""Correctness checks on a workload's first round, and the consistency
check that ends every round.

Every check is either a property the method must have or is recomputed here
from the trial's inputs and raw outputs (errors, envelopes, final states);
none compares against stored output of the program.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np
from scipy.stats import chi2

NEES_ALPHA = 1e-5  # two-sided chi-square band probability outside; see README.md
ON_MANIFOLD_TOL = 1e-9
SYMMETRY_TOL = 1e-12  # relative to max |P|
CONTAINMENT_MIN = 0.95
EXT_ROT_MAX_DEG = 3.0
EXT_POS_MAX_M = 0.05
DRIFT_RATIO_MIN = 1.0
FD_STEP = 1e-6
REFERENCE_TOL = 1e-6  # |x_ref boxminus x_filter| relative to |K r|


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


def late_drift(record, p_slice) -> float:
    """Mean position error over the second half of a trial's steps, in m."""
    err = np.linalg.norm(record.errors[:, p_slice], axis=1)
    return float(err[err.size // 2:].mean())


def _rotation_angle_deg(a: np.ndarray, b: np.ndarray) -> float:
    c = (np.trace(a.T @ b) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))


def reference_update(model, x, P, z, R, ctx):
    """Extended (single-linearization) update from first principles.

    H and the noise Jacobian D come from central finite differences of
    h(x boxplus d, v); the gain from a plain dense solve of S = H P H^T +
    D R D^T. Returns x boxplus K r and K r.
    """
    man = model.manifold
    v0 = np.zeros(R.shape[0])

    def h(xx, vv):
        return np.asarray(model.h(xx, vv, ctx), dtype=float)

    H = np.column_stack([
        (h(man.boxplus(x, FD_STEP * e), v0) - h(man.boxplus(x, -FD_STEP * e), v0))
        / (2.0 * FD_STEP)
        for e in np.eye(man.dim)
    ])
    D = np.column_stack([
        (h(x, FD_STEP * e) - h(x, -FD_STEP * e)) / (2.0 * FD_STEP)
        for e in np.eye(v0.size)
    ])
    S = H @ P @ H.T + D @ R @ D.T
    K = np.linalg.solve(S, H @ P).T
    dx = K @ (z - h(x, v0))
    return man.boxplus(x, dx), dx


def pooled_nees(values, dim: int) -> Check:
    """Pooled final-step NEES of T independent trials against chi-square(dim T)."""
    nees, dof = sum(values), dim * len(values)
    lo, hi = chi2.ppf(NEES_ALPHA / 2.0, dof), chi2.ppf(1.0 - NEES_ALPHA / 2.0, dof)
    return Check("consistency_nees_chi2", lo <= nees <= hi,
                 f"pooled {nees:.1f} over {len(values)} consistency trials "
                 f"(ratio {nees / dof:.3f}); band [{lo:.1f}, {hi:.1f}]")


def run_checks(setup, workload, first, capture) -> List[Check]:
    prog = setup.prog
    li = prog.lidar_inertial
    tan, rep = li.TAN, li.REP
    checks = []

    records = [(r.index, name, rec) for r in first for name, rec in r.records.items()]
    n_failed = sum(rec.failed for _, _, rec in records)
    checks.append(Check("no_failed_trials", n_failed == 0,
                        f"{n_failed} of {len(records)} trials failed"))
    manifold = {i: rec for i, name, rec in records if name == "ikfom"}
    finals = capture.final
    truth_final = {i: setup.inputs[i].trajectory.truth[-1] for i in manifold}

    # final estimates on their manifolds
    worst = 0.0
    for i in manifold:
        x = finals[(i, "ikfom")].x
        for block in ("R", "R_ext"):
            r = x[rep[block]].reshape(3, 3)
            worst = max(worst, np.abs(r.T @ r - np.eye(3)).max(),
                        abs(np.linalg.det(r) - 1.0))
        worst = max(worst, abs(np.linalg.norm(x[rep["g"]]) - li.GRAVITY))
    checks.append(Check("final_on_manifold", worst <= ON_MANIFOLD_TOL,
                        f"worst orthonormality/det/|g| error {worst:.1e} "
                        f"(limit {ON_MANIFOLD_TOL:g})"))

    # final covariances symmetric and positive definite
    asym, not_pd = 0.0, 0
    for state in finals.values():
        P = state.P
        asym = max(asym, np.abs(P - P.T).max() / np.abs(P).max())
        try:
            np.linalg.cholesky(P)
        except np.linalg.LinAlgError:
            not_pd += 1
    checks.append(Check("final_P_spd", asym <= SYMMETRY_TOL and not_pd == 0,
                        f"max relative asymmetry {asym:.1e}, "
                        f"{not_pd} of {len(finals)} not Cholesky-factorable"))

    # gravity 3-sigma containment over (step, axis) samples
    containment = float(np.mean([
        np.mean(np.abs(rec.errors[:, tan["g"]]) <= rec.sigma3[:, tan["g"]])
        for rec in manifold.values()
    ]))
    checks.append(Check("gravity_containment", containment >= CONTAINMENT_MIN,
                        f"{containment:.4f} (min {CONTAINMENT_MIN})"))

    if workload.pair:
        rot = max(_rotation_angle_deg(finals[(i, "ikfom")].x[rep["R_ext"]].reshape(3, 3),
                                      truth_final[i][rep["R_ext"]].reshape(3, 3))
                  for i in manifold)
        pos = max(float(np.linalg.norm(finals[(i, "ikfom")].x[rep["p_ext"]]
                                       - truth_final[i][rep["p_ext"]]))
                  for i in manifold)
        checks.append(Check("extrinsics", rot < EXT_ROT_MAX_DEG and pos < EXT_POS_MAX_M,
                            f"worst {rot:.3f} deg, {pos:.4f} m "
                            f"(limits {EXT_ROT_MAX_DEG} deg, {EXT_POS_MAX_M} m)"))
        ratios = [late_drift(r.records["quat"], tan["p"]) / late_drift(r.records["ikfom"], tan["p"])
                  for r in first]
        median = float(np.median(ratios))
        checks.append(Check("drift_ratio", median >= DRIFT_RATIO_MIN,
                            f"median baseline/manifold {median:.3f} over {len(ratios)} pairs "
                            f"(min {DRIFT_RATIO_MIN})"))

    # reference extended update on sampled priors
    worst_rel = 0.0
    for (trial, name), state, z, R, ctx in capture.samples:
        model = setup.models[name]
        config = prog.filter.UpdateConfig(max_iterations=0)
        x_filter = prog.filter.update(model, state, z, R, ctx=ctx, config=config)[0].x
        x_ref, dx = reference_update(model, state.x, state.P, z, R, ctx)
        err = np.linalg.norm(model.manifold.boxminus(x_ref, x_filter))
        worst_rel = max(worst_rel, err / max(np.linalg.norm(dx), 1e-300))
    checks.append(Check("reference_update",
                        bool(capture.samples) and worst_rel <= REFERENCE_TOL,
                        f"worst |x_ref - x_filter| / |K r| {worst_rel:.1e} over "
                        f"{len(capture.samples)} updates (limit {REFERENCE_TOL:g})"))
    return checks
