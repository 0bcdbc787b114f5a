"""End-to-end tests for the command-line interface."""
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from manikf import cli, harness
from manikf.cli import main
from manikf.trajectory import ScenarioConfig

FAST = ["--duration", "0.5", "--dt", "0.01", "--seed", "5"]


def test_simulate_writes_trace_and_summary(tmp_path):
    out = tmp_path / "run"
    rc = main(["simulate", "--scenario", "circle", *FAST, "--out", str(out)])
    assert rc == 0
    csv_lines = (out / "trial.csv").read_text().splitlines()
    assert csv_lines[0] == "step,t,block,component,truth,estimate,error,sigma3"
    assert len(csv_lines) == 1 + 51 * 23
    summary = json.loads((out / "summary.json").read_text())
    assert sorted(summary) == [
        "containment_rate", "final_drift_m", "iterations_mean", "mean_nees",
    ]


def test_montecarlo_summary(tmp_path):
    out = tmp_path / "mc"
    rc = main(["montecarlo", "--scenario", "static", *FAST,
               "--trials", "2", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {
        "mean_nees", "containment_rate", "final_drift_m", "iterations_mean",
    }


def test_compare_outputs(tmp_path):
    out = tmp_path / "cmp"
    rc = main(["compare", "--scenario", "circle", *FAST,
               "--trials", "2", "--out", str(out)])
    assert rc == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "trial,drift_ikfom_m,drift_quat_m,ratio"
    assert len(lines) == 3
    summary = json.loads((out / "compare.json").read_text())
    assert summary["trials"] == 2 and summary["failures"] == 0
    assert summary["win_rate"] >= 0.0


def test_bad_scenario_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", "spiral"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["simulate", "--trials", "5"], ["compare", "--filter", "quat"]],
                         ids=["simulate-trials", "compare-filter"])
def test_flag_the_command_would_ignore_is_usage_error(argv):
    # simulate runs one trial and compare runs both filters
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_config_file_merge(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(
        {"scenario": "static", "duration": 5.0, "dt": 0.01, "trials": 1}
    ))
    out = tmp_path / "out"
    # flags win over the file
    rc = main(["simulate", "--config", str(cfg_file),
               "--duration", "0.3", "--out", str(out)])
    assert rc == 0
    lines = (out / "trial.csv").read_text().splitlines()
    assert len(lines) == 1 + 31 * 23
    # every flag overrides the file's value of its key by the same rule
    cfg_file.write_text(json.dumps(
        {"scenario": "static", "trials": 3, "filter": "quat", "nmax": 1, "seed": 4}
    ))

    def load(*flags):
        args = cli._build_parser().parse_args(["montecarlo", "--config", str(cfg_file), *flags])
        cfg, trials = cli._load_config(args)
        return trials, cfg.filter, cfg.nmax, cfg.seed

    assert load() == (3, "quat", 1, 4)
    assert load("--trials", "2") == (2, "quat", 1, 4)
    assert load("--filter", "ikfom") == (3, "ikfom", 1, 4)
    assert load("--nmax", "0") == (3, "quat", 0, 4)
    assert load("--seed", "9") == (3, "quat", 1, 9)


def test_unknown_config_key_is_rejected(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"scenario": "static", "turbo": True}))
    assert main(["simulate", "--config", str(cfg_file)]) == 2
    cfg_file.write_text("not json at all {")
    assert main(["simulate", "--config", str(cfg_file)]) == 2
    # fewer than one trial, from a flag or from the file
    out = str(tmp_path / "out")
    assert main(["montecarlo", *FAST, "--trials", "0", "--out", out]) == 2
    assert main(["compare", *FAST, "--trials", "0", "--out", out]) == 2
    assert main(["compare", *FAST, "--trials", "-2", "--out", out]) == 2
    cfg_file.write_text(json.dumps({"scenario": "static", "trials": 0}))
    assert main(["montecarlo", "--config", str(cfg_file), "--out", out]) == 2
    # sizes that would crash the run or be silently clamped, numbers that
    # would be silently truncated or read from a boolean, and non-finite
    # numbers (json reads NaN and Infinity), which would end as a numerical
    # failure, an OverflowError or a run that ignores them
    nan, inf = float("nan"), float("inf")
    for bad in ({"points_per_update": 0}, {"n_planes": 0}, {"nmax": -1},
                {"sigma_feature": 0.0}, {"nmax": 2.9}, {"trials": 2.5},
                {"points_per_update": 3.7}, {"seed": True}, {"dt": True},
                {"sigma_a": nan}, {"sigma_feature": inf}, {"duration": inf},
                {"dt": nan}, {"peak_rate": nan}, {"sigma_bw": -inf}, {"seed": -1}):
        cfg_file.write_text(json.dumps({"scenario": "circle", **bad}))
        assert main(["simulate", "--config", str(cfg_file), "--out", out]) == 2
    assert main(["simulate", *FAST, "--duration", "inf", "--out", out]) == 2
    assert main(["simulate", *FAST, "--seed", "-1", "--out", out]) == 2


def test_config_file_sets_every_scalar_field(tmp_path):
    # JSON ints for float fields must arrive as floats
    values = {
        "scenario": ("static", str), "seed": (11, int), "duration": (1, float),
        "dt": (0.02, float), "peak_rate": (5, float), "n_planes": (7, int),
        "points_per_update": (4, int), "sigma_a": (0.04, float),
        "sigma_w": (0.004, float), "sigma_ba": (2e-4, float),
        "sigma_bw": (2e-5, float), "sigma_feature": (0.03, float),
        "nmax": (3, int), "filter": ("quat", str), "baseline_mode": ("hard", str),
    }
    scalar = {f.name for f in dataclasses.fields(ScenarioConfig)} - {"init_sigma"}
    assert set(values) == scalar
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({k: v for k, (v, _) in values.items()}))
    args = cli._build_parser().parse_args(["simulate", "--config", str(cfg_file)])
    cfg, trials = cli._load_config(args)
    assert trials == 1
    for key, (val, kind) in values.items():
        got = getattr(cfg, key)
        assert type(got) is kind and got == val, (key, got)
    # the tuple field is not a config-file key
    cfg_file.write_text(json.dumps({"init_sigma": [0.1] * 8}))
    assert main(["simulate", "--config", str(cfg_file)]) == 2


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    # a measurement model that returns NaN fails the first update
    factory = harness.lidar_inertial_model
    monkeypatch.setattr(harness, "lidar_inertial_model", lambda: dataclasses.replace(
        factory(), h=lambda x, v, ctx: np.full(len(ctx.g), np.nan)))
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"scenario": "circle", "duration": 0.2, "dt": 0.01}))
    out = tmp_path / "fail"
    rc = main(["simulate", "--config", str(cfg_file), "--out", str(out)])
    assert rc == 3


def test_all_failed_runs_write_strict_json(tmp_path, monkeypatch):
    # with no successful trial the metrics are null, not the NaN token that
    # strict JSON readers reject
    factory = harness.lidar_inertial_model
    monkeypatch.setattr(harness, "lidar_inertial_model", lambda: dataclasses.replace(
        factory(), h=lambda x, v, ctx: np.full(len(ctx.g), np.nan)))

    def strict(path):
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")
        return json.loads(path.read_text(), parse_constant=reject)

    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", "circle", *FAST, "--out", str(out)]) == 3
    summary = strict(out / "summary.json")
    for key in ("mean_nees", "final_drift_m", "iterations_mean"):
        assert summary[key] is None
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", "circle", *FAST,
                 "--trials", "2", "--out", str(out)]) == 3
    summary = strict(out / "compare.json")
    assert summary["failures"] == 2
    assert summary["win_rate"] is None and summary["median_drift_ratio"] is None


def test_the_cli_loads_every_module_of_the_package():
    # code only the tests run belongs under tests/, not in the package
    src = Path(cli.__file__).parent
    code = "import sys, manikf.cli; print(*(m for m in sys.modules if m.split('.')[0] == 'manikf'))"
    env = {**os.environ, "PYTHONPATH": str(src.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert {m.partition(".")[2] or "__init__" for m in out} == {p.stem for p in src.glob("*.py")}
