"""Tests for trial execution, metrics, and file output."""
import dataclasses
import json

import numpy as np
import pytest

from manikf import harness
from manikf.errors import DimensionError
from manikf.harness import (
    gravity_containment,
    run_monte_carlo,
    run_trial,
    summarize,
    trial_csv_rows,
    write_summary_json,
    write_trial_csv,
)
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
    assert rec.est_rep is None


def test_trials_are_deterministic():
    for cfg in (
        _short_cfg(),
        _short_cfg(filter="quat", baseline_mode="hard"),
        _short_cfg(filter="quat", baseline_mode="augmented"),
    ):
        a = run_trial(cfg, trial=2, keep_estimates=True)
        b = run_trial(cfg, trial=2, keep_estimates=True)
        assert np.array_equal(a.errors, b.errors)
        assert np.array_equal(a.est_rep, b.est_rep)
        assert trial_csv_rows(a) == trial_csv_rows(b)


def test_baseline_trial_runs_both_modes():
    for mode in ("hard", "augmented"):
        rec = run_trial(_short_cfg(filter="quat", baseline_mode=mode, duration=0.5))
        assert not rec.failed
        assert rec.cfg.filter == "quat"
        assert rec.errors.shape[1] == 23
        assert np.all(rec.sigma3[1:] >= 0.0)


def test_failure_is_recorded_not_raised():
    # zero prior variance on the extrinsics leaves P without a Cholesky factor
    cfg = _short_cfg(init_sigma=(0.1, 0.1, 0.05, 0.02, 0.002, 0.03, 0.0, 0.0), duration=0.2)
    rec = run_trial(cfg)
    assert rec.failed
    assert rec.failure.startswith("step 1: prior covariance could not be factorized")
    assert rec.errors.shape[0] == 1  # truncated at the failure


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


def test_summarize_keys_and_failure_handling():
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


def test_run_monte_carlo():
    cfg = _short_cfg(duration=0.5)
    out = run_monte_carlo(cfg, trials=3)
    assert out["summary"]["trials"] == 3
    assert out["summary"]["failures"] == 0
    assert len(out["records"]) == 3
    with pytest.raises(ValueError):
        run_monte_carlo(cfg, trials=0)


def test_csv_schema(tmp_path):
    cfg = _short_cfg(duration=0.2)
    rec = run_trial(cfg, keep_estimates=True)
    rows = trial_csv_rows(rec)
    assert rows[0] == "step,t,block,component,truth,estimate,error,sigma3"
    assert len(rows) == 1 + (cfg.n_steps + 1) * 23
    fields = rows[1].split(",")
    assert fields[0] == "0" and fields[2] == "p" and fields[3] == "0"
    for row in rows[1:]:
        f = row.split(",")
        assert len(f) == 8
        float(f[1]); float(f[4]); float(f[5]); float(f[6]); float(f[7])
    path = tmp_path / "trial.csv"
    write_trial_csv(rec, path)
    assert path.read_text().splitlines() == rows
    # records without stored estimates cannot be dumped
    with pytest.raises(ValueError):
        trial_csv_rows(run_trial(cfg))


def test_csv_gravity_chart_is_relative_to_initial_estimate():
    cfg = _short_cfg(duration=0.2)
    rec = run_trial(cfg, keep_estimates=True)
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
    vals = rec.nees[np.isfinite(rec.nees)]
    assert 10.0 < np.mean(vals) < 45.0


@pytest.mark.parametrize("scenario", ["circle", "fast-rotation"])
def test_both_filters_start_alike_in_the_tangent_space(scenario):
    # both filters draw the same initial state, and baseline.tangent_cov maps
    # the baseline's prior onto the tangent prior, so step 0 agrees
    cfg = _short_cfg(scenario=scenario, duration=0.02)
    ikfom, quat = (run_trial(dataclasses.replace(cfg, filter=f)) for f in ("ikfom", "quat"))
    assert_close(quat.errors[0], ikfom.errors[0], tol=1e-9, floor=1e-15)
    assert_close(quat.sigma3[0], ikfom.sigma3[0], tol=1e-9, floor=1e-15)
    assert abs(quat.nees[0] - ikfom.nees[0]) <= 1e-9 * ikfom.nees[0]
