"""Alternating parent/change runs of perfbench, written to one BENCH json.

    python3 tools/bench_pairs.py PARENT_REV --out BENCH_<n>.json --note "what changed"

The parent tree is ``git archive PARENT_REV`` of ``src/``, ``perfbench/`` and
``pyproject.toml``; the change tree is a copy of the same paths of the
working tree, so uncommitted edits are measured. Each tree lives in its own
temporary directory, and each run is ``python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0`` there, one run at a time. A pair is one run
of each side; the side that runs first alternates from pair to pair.

``PLAN`` runs ``PAIRS`` (10) pairs of every workload at seeds 1 and 2,
each run ``SECONDS`` long. For every workload, seed and end-to-end metric
the file holds each side's runs, median and quartiles (numpy percentile,
linear), the ratio of medians, the change/parent ratio of each pair and the
number of pairs in which the change reads better (ties count for neither);
also the operations attempted and failed, whether every check passed, and
whether ``drift_m`` was bitwise equal in every pair. Then one traced run
(``--trace 1``) per side and workload at the first seed gives the per-layer
call counts of both sides. The claim, ``CLAIM`` (a workload and one of
its end-to-end metrics), is met at a seed when the change reads better in
at least 9 of 10 pairs and its median beats the parent's by more than the
parent's interquartile range.
"""
from __future__ import annotations

import argparse
import json
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PATHS = ("src", "perfbench", "pyproject.toml")
METRICS = {"setup_s": "lower", "trial_s": "lower", "steps_per_s": "higher",
           "peak_rss_mb": "lower", "drift_m": "lower"}
PLAN = [(w, seed) for w in ("circle", "fast-rotation-pair", "dense-scan") for seed in (1, 2)]
PAIRS = 10
SECONDS = 10.0  # BENCHMARK.json's run_seconds
CLAIM = ("circle", "setup_s")
# per-layer counts that a change leaving the work alone keeps
COUNTS = ("so3.exp.calls", "so3.log.calls", "so3.mat_a.calls", "sphere.basis.calls",
          "sphere.ops.calls", "manifolds.diff_u.calls", "model.h.calls",
          "filter.gain_solve.calls", "filter.linearizations", "filter.meas_rows")


def parent_tree(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev, *PATHS], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def change_tree(dest: Path) -> None:
    for rel in PATHS:
        src = ROOT / rel
        if src.is_dir():
            shutil.copytree(src, dest / rel, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(src, dest / rel)


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last line of one perfbench run, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def side_stats(values: list) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "runs": values}


def summarize(runs: dict, firsts: list) -> dict:
    """One plan entry's runs ({"parent": [...], "change": [...]}), summarized."""
    out = {"runs_per_side": len(firsts), "first_in_pair": firsts}
    for side in ("parent", "change"):
        out[f"correct_{side}"] = [r["correct"] for r in runs[side]]
        out[f"attempted_{side}"] = sum(r["attempted"] for r in runs[side])
        out[f"failed_{side}"] = sum(r["failed"] for r in runs[side])
    for name, better in METRICS.items():
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        ratios = [c / p for p, c in zip(vals["parent"], vals["change"])]
        wins = sum((c > p) if better == "higher" else (c < p)
                   for p, c in zip(vals["parent"], vals["change"]))
        par, chg = side_stats(vals["parent"]), side_stats(vals["change"])
        out[name] = {"unit": runs["parent"][0]["metrics"][name]["unit"], "better": better,
                     "parent": par, "change": chg,
                     "ratio_of_medians": chg["median"] / par["median"],
                     "pair_ratios": ratios, "change_better_in_pairs": wins}
    out["drift_bitwise_equal_in_every_pair"] = all(
        p["metrics"]["drift_m"]["value"] == c["metrics"]["drift_m"]["value"]
        for p, c in zip(runs["parent"], runs["change"]))
    return out


def claim_verdict(entry: dict, metric: str) -> dict:
    m = entry[metric]
    par, chg = m["parent"], m["change"]
    gain = chg["median"] - par["median"]
    if m["better"] == "lower":
        gain = -gain
    iqr = par["q3"] - par["q1"]
    pairs = entry["runs_per_side"]
    met = m["change_better_in_pairs"] >= 0.9 * pairs and gain > iqr
    return {"met": bool(met), "change_better_in_pairs": m["change_better_in_pairs"],
            "pairs": pairs, "ratio_of_medians": m["ratio_of_medians"],
            "median_gain": gain, "parent_iqr": iqr}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git revision of the parent tree")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--note", default="", help="what the change does, stored as 'change'")
    args = ap.parse_args()
    parent_rev = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout.strip()
    result = {
        "change": args.note,
        "parent_commit": parent_rev,
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {SECONDS:g} --trace 0",
        "script": "python3 tools/bench_pairs.py " + " ".join(sys.argv[1:]),
        "machine": f"{platform.machine()}, python {platform.python_version()}, "
                   f"numpy {np.__version__}; 1 BLAS thread, as perfbench sets it",
        "end_to_end": {}, "claim": {}, "traced_counts": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        parent_tree(parent_rev, trees["parent"])
        change_tree(trees["change"])
        for workload, seed in PLAN:
            runs, firsts = {"parent": [], "change": []}, []
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                firsts.append(order[0])
                for side in order:
                    runs[side].append(run(trees[side], workload, seed, SECONDS, 0))
            entry = summarize(runs, firsts)
            result["end_to_end"][f"{workload} seed {seed}"] = entry
            line = {k: round(entry[k]["ratio_of_medians"], 4) for k in METRICS}
            print(f"{workload} seed {seed}: {line}", flush=True)
        claim_workload, claim_metric = CLAIM
        result["claim"] = {"metric": claim_metric, "workload": claim_workload, **{
            key: claim_verdict(entry, claim_metric)
            for key, entry in result["end_to_end"].items() if key.startswith(claim_workload + " ")
        }}
        first_seed = PLAN[0][1]
        for workload in dict.fromkeys(w for w, _ in PLAN):
            counts = {}
            for side, tree in trees.items():
                metrics = run(tree, workload, first_seed, SECONDS, 1)["metrics"]
                counts[side] = {k: metrics[k]["value"] for k in COUNTS if k in metrics}
            counts["equal"] = counts["parent"] == counts["change"]
            result["traced_counts"][f"{workload} seed {first_seed}"] = counts
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result["claim"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
