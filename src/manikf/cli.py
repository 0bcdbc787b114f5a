"""Command-line front end: simulate, montecarlo, compare.

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure
inside a filter run.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from pathlib import Path

import numpy as np

from .errors import ContractViolationError
from .harness import run_trial, summarize, write_summary_json, write_trial_csv
from .trajectory import SCENARIOS, ScenarioConfig

# config-file keys: the trial count and the scalar fields of ScenarioConfig, with their types
_CONFIG_FIELDS = {
    "trials": int,
    **{n: k for n, k in typing.get_type_hints(ScenarioConfig).items() if k in (str, int, float)},
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", choices=SCENARIOS)
    p.add_argument("--seed", type=int)
    p.add_argument("--duration", type=float, metavar="S")
    p.add_argument("--dt", type=float, metavar="S")
    p.add_argument("--nmax", type=int)
    p.add_argument("--out", type=Path, default=Path("."))
    p.add_argument("--config", type=Path, help="JSON file with the same keys as the flags")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manikf", description="Manifold Kalman filter simulation harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # --trials only where more than one trial runs, --filter only where one filter does
    for name, run, help_text, trials, one_filter in (
        ("simulate", _cmd_simulate, "run one trial and write its CSV trace", False, True),
        ("montecarlo", _cmd_montecarlo, "run repeated trials and write the summary JSON",
         True, True),
        ("compare", _cmd_compare, "paired drift comparison of both filters", True, False),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        _add_common(p)
        if trials:
            p.add_argument("--trials", type=int)
        if one_filter:
            p.add_argument("--filter", choices=("ikfom", "quat"))
    return parser


def _load_config(args) -> tuple:
    """Merge config file and flags into a ScenarioConfig and a trial count:
    every flag that is set overrides its config key; one trial by default."""
    values = {}
    if args.config is not None:
        try:
            raw = json.loads(args.config.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ContractViolationError(f"cannot read config file: {exc}")
        if not isinstance(raw, dict):
            raise ContractViolationError("config file must hold a JSON object")
        for key, val in raw.items():
            kind = _CONFIG_FIELDS.get(key)
            if kind is None:
                raise ContractViolationError(f"unknown config key {key!r}")
            # as the flags do: no 2.9 or true for an int, no true for a float
            if kind is not str and (type(val) is bool or not isinstance(val, (int, kind))):
                raise ContractViolationError(f"config key {key!r} must be a {kind.__name__}")
            values[key] = kind(val)
    values.update({k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS and v is not None})
    trials = values.pop("trials", 1)
    if trials < 1:
        raise ContractViolationError(f"trials must be at least 1, got {trials}")
    cfg = ScenarioConfig(**values)
    cfg.validate()
    if cfg.sigma_feature <= 0.0:  # the update weighs each scan row by 1/sigma_feature
        raise ContractViolationError("sigma_feature must be positive")
    return cfg, trials


def _cmd_simulate(cfg: ScenarioConfig, trials: int, out: Path) -> int:
    record = run_trial(cfg, trial=0)
    out.mkdir(parents=True, exist_ok=True)
    write_trial_csv(record, out / "trial.csv")
    write_summary_json(summarize([record]), out / "summary.json")
    if record.failed:
        print(f"trial failed: {record.failure}", file=sys.stderr)
        return 3
    return 0


def _cmd_montecarlo(cfg: ScenarioConfig, trials: int, out: Path) -> int:
    records = [run_trial(cfg, trial=i) for i in range(trials)]
    out.mkdir(parents=True, exist_ok=True)
    write_summary_json(summarize(records), out / "summary.json")
    failures = sum(r.failed for r in records)
    if failures:
        print(f"{failures}/{trials} trials failed", file=sys.stderr)
    return 3 if failures == trials else 0


def _cmd_compare(cfg: ScenarioConfig, trials: int, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    rows = ["trial,drift_ikfom_m,drift_quat_m,ratio"]
    ratios, wins, failures = [], 0, 0
    for i in range(trials):
        rec_i = run_trial(dataclasses.replace(cfg, filter="ikfom"), trial=i)
        rec_q = run_trial(dataclasses.replace(cfg, filter="quat"), trial=i)
        if rec_i.failed or rec_q.failed:
            failures += 1
            rows.append("%d,nan,nan,nan" % i)
            continue
        ratio = rec_q.final_drift / max(rec_i.final_drift, 1e-12)
        ratios.append(ratio)
        wins += int(rec_i.final_drift <= rec_q.final_drift)
        rows.append(
            "%d,%.17g,%.17g,%.17g" % (i, rec_i.final_drift, rec_q.final_drift, ratio)
        )
    (out / "compare.csv").write_text("\n".join(rows) + "\n")
    summary = {
        "trials": trials,
        "failures": failures,
        "win_rate": (wins / len(ratios)) if ratios else float("nan"),
        "median_drift_ratio": float(np.median(ratios)) if ratios else float("nan"),
    }
    write_summary_json(summary, out / "compare.json")
    return 3 if failures == trials else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, trials = _load_config(args)
    except (TypeError, ValueError) as exc:  # ContractViolationError is a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return args.run(cfg, trials, args.out)


if __name__ == "__main__":
    sys.exit(main())
