"""Tests for trial execution, metrics, and file output."""
import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg

from manikf import harness
from manikf.errors import DimensionError
from manikf.harness import (
    gravity_containment,
    run_trial,
    summarize,
    trial_csv_rows,
    write_summary_json,
    write_trial_csv,
)
from manikf.lidar_inertial import REP, STATE_MANIFOLD, TAN, TANGENT_DIM
from manikf.trajectory import ScenarioConfig

from helpers import assert_close


def _short_cfg(**kw):
    base = dict(scenario="circle", seed=7, duration=1.0, dt=0.01)
    base.update(kw)
    return ScenarioConfig(**base)


def test_zero_noise_exact_init_has_negligible_drift():
    cfg = _short_cfg(
        sigma_a=0.0, sigma_w=0.0, sigma_ba=0.0, sigma_bw=0.0, sigma_feature=1e-8,
        init_sigma=tuple([1e-9] * 8),
    )
    rec = run_trial(cfg)
    assert not rec.failed
    assert rec.final_drift < 1e-6
    assert rec.final_ext_pos < 1e-6
    assert rec.final_ext_rot_deg < 1e-4


def test_trial_record_shapes_and_metrics():
    cfg = _short_cfg()
    rec = run_trial(cfg, trial=1)
    k = cfg.n_steps
    assert rec.errors.shape == (k + 1, 23)
    assert rec.sigma3.shape == (k + 1, 23)
    assert rec.nees.shape == (k + 1,)
    assert len(rec.iterations) == k
    assert all(0 <= i <= cfg.nmax for i in rec.iterations)
    assert np.all(np.isfinite(rec.nees))
    assert 0.0 <= gravity_containment(rec) <= 1.0
    assert rec.est_rep.shape == (k + 1, 36)


def test_trials_are_deterministic():
    for cfg in (
        _short_cfg(),
        _short_cfg(filter="quat", baseline_mode="hard"),
        _short_cfg(filter="quat", baseline_mode="augmented"),
    ):
        a = run_trial(cfg, trial=2)
        b = run_trial(cfg, trial=2)
        assert np.array_equal(a.errors, b.errors)
        assert np.array_equal(a.est_rep, b.est_rep)
        assert trial_csv_rows(a) == trial_csv_rows(b)


def test_baseline_trial_runs_both_modes():
    for mode in ("hard", "augmented"):
        rec = run_trial(_short_cfg(filter="quat", baseline_mode=mode, duration=0.5))
        assert not rec.failed
        assert rec.errors.shape[1] == 23
        assert np.all(rec.sigma3[1:] >= 0.0)


def test_failure_is_recorded_not_raised():
    # zero prior variance on the extrinsics leaves P without a Cholesky factor
    cfg = _short_cfg(init_sigma=(0.1, 0.1, 0.05, 0.02, 0.002, 0.03, 0.0, 0.0), duration=0.2)
    rec = run_trial(cfg)
    assert rec.failed
    assert rec.failure.startswith("step 1: prior covariance could not be factorized")
    assert rec.errors.shape[0] == 1  # truncated at the failure
    assert rec.est_rep.shape[0] == rec.errors.shape[0]
    # the final metrics are read off the last recorded step, not the state
    # the failed step left behind
    last = rec.errors[-1]
    assert rec.final_drift == np.linalg.norm(last[TAN["p"]])
    assert rec.final_ext_pos == np.linalg.norm(last[TAN["p_ext"]])
    assert rec.final_ext_rot_deg == np.degrees(np.linalg.norm(last[TAN["R_ext"]]))


def _captured_steps(monkeypatch, fail_at=None):
    """Wrap harness.predict, harness.update and qb.normalize_state as
    perfbench's Capture wraps update. Returns the list that fills with each
    step's projected (x, P), the initial state first. The update call
    number ``fail_at`` raises FloatingPointError instead."""
    predict, update, normalize = harness.predict, harness.update, harness.qb.normalize_state
    steps = []

    def captured_predict(model, state, *args):
        if not steps:
            steps.append([state.x.copy(), state.P.copy()])
        return predict(model, state, *args)

    def captured_update(model, state, z, R, ctx=None, config=None):
        if len(steps) == fail_at:
            raise FloatingPointError("synthetic")
        out = update(model, state, z, R, ctx=ctx, config=config)
        steps.append([out[0].x, out[0].P])
        return out

    def captured_normalize(x):
        y = normalize(x)
        if x is steps[-1][0]:  # the projection of the update's posterior
            steps[-1][0] = y
        return y

    monkeypatch.setattr(harness, "predict", captured_predict)
    monkeypatch.setattr(harness, "update", captured_update)
    monkeypatch.setattr(harness.qb, "normalize_state", captured_normalize)
    return steps


@pytest.mark.parametrize("fail_at", [None, 4])
@pytest.mark.parametrize("filt", ["ikfom", "quat"])
def test_record_matches_the_per_step_reference(monkeypatch, filt, fail_at):
    # the record, built after the loop, against each step's posterior put
    # through the per-step formulas
    cfg = _short_cfg(filter=filt, baseline_mode="augmented", duration=0.3)
    steps = _captured_steps(monkeypatch, fail_at)
    rec = run_trial(cfg, trial=1)
    n_rows = cfg.n_steps + 1 if fail_at is None else fail_at
    assert rec.failed == (fail_at is not None)
    assert len(steps) == n_rows
    to_manifold, tangent_cov = {
        "ikfom": (lambda x: x, lambda x, p: p),
        "quat": (harness.qb.to_manifold, harness.qb.tangent_cov),
    }[filt]
    man = STATE_MANIFOLD
    est, errors, sigma3, nees = [], [], [], []
    for truth, (x, p) in zip(rec.truth, steps):
        xm, pt = to_manifold(x), tangent_cov(x, p)
        est.append(xm)
        errors.append(man.boxminus(truth, xm))
        sigma3.append(3.0 * np.sqrt(np.maximum(np.diag(pt), 0.0)))
        nees.append(errors[-1] @ scipy.linalg.cho_solve(scipy.linalg.cho_factor(pt), errors[-1]))
    for got, want in ((rec.est_rep, est), (rec.sigma3, sigma3)):
        assert got.shape[0] == n_rows
        assert np.array_equal(got, np.array(want))
    # the record's errors and NEES come from stack kernels, which round apart
    # from the per-row ones: 1e-12 relative
    assert rec.errors.shape == (n_rows, TANGENT_DIM) and rec.nees.shape == (n_rows,)
    assert_close(rec.errors, errors, tol=1e-12)
    np.testing.assert_allclose(rec.nees, nees, rtol=1e-12, atol=0.0)
    assert len(rec.iterations) == n_rows - 1
    # the final metrics as they were taken from the last estimate
    xm, truth = est[-1], rec.truth[n_rows - 1]
    rot = harness.so3_log(xm[REP["R_ext"]].reshape(3, 3).T @ truth[REP["R_ext"]].reshape(3, 3))
    assert rec.final_drift == np.linalg.norm(truth[REP["p"]] - xm[REP["p"]])
    assert rec.final_ext_pos == np.linalg.norm(truth[REP["p_ext"]] - xm[REP["p_ext"]])
    np.testing.assert_allclose(rec.final_ext_rot_deg, np.degrees(np.linalg.norm(rot)),
                               rtol=1e-12, atol=0.0)


def _with_measurement(monkeypatch, wrap, field="h"):
    """Make run_trial use a lidar-inertial model whose h (or another
    field) is wrap(h)."""
    factory = harness.lidar_inertial_model

    def patched(*args, **kwargs):
        model = factory(*args, **kwargs)
        return dataclasses.replace(model, **{field: wrap(getattr(model, field))})

    monkeypatch.setattr(harness, "lidar_inertial_model", patched)


def test_zero_feature_noise_raises():
    # the update weighs each scan row by 1/sigma_feature: zero is a caller error
    with pytest.raises(DimensionError):
        run_trial(_short_cfg(sigma_feature=0.0, duration=0.2))


def test_malformed_model_raises(monkeypatch):
    # a shape bug is a programming error, not a numerical failure
    _with_measurement(monkeypatch, lambda h: lambda x, v, ctx: h(x, v, ctx)[:-1])
    with pytest.raises(DimensionError):
        run_trial(_short_cfg(duration=0.2))


@pytest.mark.parametrize("nmax", [0, 2])
def test_non_finite_measurement_is_a_failed_trial(monkeypatch, nmax):
    _with_measurement(monkeypatch, lambda h: lambda x, v, ctx: np.full_like(h(x, v, ctx), np.nan))
    rec = run_trial(_short_cfg(duration=0.2, nmax=nmax))
    assert rec.failed
    assert rec.failure.startswith("step 1: measurement model returned non-finite values")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_overflowing_gain_is_a_failed_trial(monkeypatch):
    # a finite but huge dh_dx overflows the gain matrix I + A^T A
    _with_measurement(monkeypatch, lambda dh: lambda x, ctx: 1e200 * dh(x, ctx), "dh_dx")
    rec = run_trial(_short_cfg(duration=0.2))
    assert rec.failed
    assert rec.failure.startswith("step 1: gain matrix I + A^T A could not be factorized")
    assert rec.errors.shape[0] == 1


def test_nees_contract():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5))
    p, err = a @ a.T + np.eye(5), rng.standard_normal(5)
    assert_close(harness._nees(err, p), err @ np.linalg.solve(p, err), tol=1e-13)
    # a covariance without a Cholesky factor counts as an inconsistency event
    assert harness._nees(err[:2], np.diag([1.0, -1.0])) == np.inf
    assert harness._nees(err[:2], np.zeros((2, 2))) == np.inf
    # non-finite input is an error, wherever it sits
    for bad in (np.nan, np.inf):
        for i, j in ((0, 0), (3, 1), (1, 3)):
            q = p.copy()
            q[i, j] = bad
            with pytest.raises(ValueError):
                harness._nees(err, q)
        with pytest.raises(ValueError):
            harness._nees(np.full(5, bad), p)
    # on a stack, each row reads that row's own NEES
    a = rng.standard_normal((6, 5, 5))
    ps, errs = a @ np.swapaxes(a, 1, 2) + np.eye(5), rng.standard_normal((6, 5))
    clean = harness._nees(errs, ps)
    assert clean.shape == (6,)
    for e, p, got in zip(errs, ps, clean):
        assert_close(got, e @ np.linalg.solve(p, e), tol=1e-13)
        assert got == harness._nees(e, p)
    # an indefinite row reads inf, and only that row
    bad = ps.copy()
    bad[2] = np.diag([1.0, -1.0, 1.0, 1.0, 1.0])
    out = harness._nees(errs, bad)
    assert out[2] == np.inf
    assert np.array_equal(np.delete(out, 2), np.delete(clean, 2))
    # non-finite input anywhere in the stack is an error
    for value in (np.nan, np.inf):
        q = ps.copy()
        q[4, 1, 3] = value
        with pytest.raises(ValueError):
            harness._nees(errs, q)
        e = errs.copy()
        e[5, 0] = value
        with pytest.raises(ValueError):
            harness._nees(e, ps)


def test_baseline_collapse_is_a_failed_trial(monkeypatch):
    # q collapsing mid-trial is a numerical failure, not a programming error
    normalize, calls = harness.qb.normalize_state, []

    def collapse_third(x):
        calls.append(x)
        if len(calls) == 3:
            x = x.copy()
            x[harness.qb.BREP["q"]] = 0.0
        return normalize(x)

    monkeypatch.setattr(harness.qb, "normalize_state", collapse_third)
    rec = run_trial(_short_cfg(filter="quat", duration=0.2))
    assert rec.failed
    assert rec.failure == "step 2: q collapsed to zero; cannot normalize"
    assert rec.errors.shape[0] == 2


def test_summarize_keys_and_failure_handling(tmp_path):
    cfg = _short_cfg(duration=0.5)
    good = run_trial(cfg)
    out = summarize([good])
    assert sorted(out) == [
        "containment_rate", "final_drift_m", "iterations_mean", "mean_nees",
    ]
    assert np.isfinite(out["mean_nees"])
    bad = dataclasses.replace(good, failed=True, failure="synthetic")
    empty = summarize([bad])
    assert np.isnan(empty["mean_nees"]) and empty["containment_rate"] == 0.0
    # a P with no Cholesky factor records an infinite NEES; that step must
    # not drop out of the mean, and summary.json shows the mean as null
    good.nees[3] = np.inf
    out = summarize([good])
    assert out["mean_nees"] == np.inf
    write_summary_json(out, tmp_path / "summary.json")
    assert json.loads((tmp_path / "summary.json").read_text())["mean_nees"] is None


def test_csv_schema(tmp_path):
    # one row per step and tangent component, whose t, error and sigma3 read
    # back as the record's values bit for bit
    cfg = _short_cfg(duration=0.2)
    rec = run_trial(cfg)
    rows = trial_csv_rows(rec)
    assert rows[0] == "step,t,block,component,truth,estimate,error,sigma3"
    assert len(rows) == 1 + (cfg.n_steps + 1) * 23
    fields = rows[1].split(",")
    assert fields[0] == "0" and fields[2] == "p" and fields[3] == "0"
    cells = [row.split(",") for row in rows[1:]]
    assert {len(f) for f in cells} == {8}
    table = np.array([[float(f[i]) for i in (1, 4, 5, 6, 7)] for f in cells])
    t, _, _, err, sig = table.reshape(cfg.n_steps + 1, 23, 5).transpose(2, 0, 1)
    assert t.tobytes() == np.repeat(rec.times[:, None], 23, axis=1).tobytes(), "t"
    assert err.tobytes() == rec.errors.tobytes(), "error"
    assert sig.tobytes() == rec.sigma3.tobytes(), "sigma3"
    path = tmp_path / "trial.csv"
    write_trial_csv(rec, path)
    assert path.read_text().splitlines() == rows


def test_csv_gravity_chart_is_relative_to_initial_estimate():
    cfg = _short_cfg(duration=0.2)
    rec = run_trial(cfg)
    rows = trial_csv_rows(rec)
    g_rows = [r.split(",") for r in rows[1:] if r.split(",")[2] == "g"]
    first = [r for r in g_rows if r[0] == "0"]
    assert len(first) == 2
    # at step 0 the estimate is the chart reference, so it reads zero
    assert all(abs(float(r[5])) < 1e-12 for r in first)


def test_write_summary_json(tmp_path):
    path = tmp_path / "summary.json"
    write_summary_json(
        {"mean_nees": 21.0, "containment_rate": 0.97,
         "final_drift_m": 0.05, "iterations_mean": 3.2},
        path,
    )
    loaded = json.loads(path.read_text())
    assert list(loaded) == sorted(loaded)
    assert loaded["mean_nees"] == 21.0


def test_nees_is_chi_square_like_on_short_run():
    # matched model: time-averaged NEES should be near the state dimension
    cfg = _short_cfg(duration=2.0, seed=3)
    rec = run_trial(cfg)
    assert 10.0 < np.mean(rec.nees) < 45.0


@pytest.mark.parametrize("scenario", ["circle", "fast-rotation"])
def test_both_filters_start_alike_in_the_tangent_space(scenario):
    # both filters draw the same initial state, and baseline.tangent_cov maps
    # the baseline's prior onto the tangent prior, so step 0 agrees
    cfg = _short_cfg(scenario=scenario, duration=0.02)
    ikfom, quat = (run_trial(dataclasses.replace(cfg, filter=f)) for f in ("ikfom", "quat"))
    assert_close(quat.errors[0], ikfom.errors[0], tol=1e-9, floor=1e-15)
    assert_close(quat.sigma3[0], ikfom.sigma3[0], tol=1e-9, floor=1e-15)
    assert abs(quat.nees[0] - ikfom.nees[0]) <= 1e-9 * ikfom.nees[0]
