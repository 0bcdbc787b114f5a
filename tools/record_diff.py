"""Rounding-aware diff of ``run_trial`` records: a parent revision against the working tree.

    python3 tools/record_diff.py PARENT_REV

``tools/record_digest.py`` says only whether two trees compute the same
bits. This script says by how much their records differ, for a change that
moves bits on purpose (a different LAPACK routine, another summation order).

The parent tree is ``git archive PARENT_REV`` of ``src/``; the change tree is
a copy of the working tree's ``src/``, so uncommitted edits are compared.
Both trees get this script and ``record_digest.py`` from the working tree, and
each runs in its own subprocess with one BLAS thread: the digest's cases
(its ``SEED``, ``TRIALS``, ``SCENARIOS``, ``VARIANTS`` and ``FILTERS``),
then the acceptance figures of ``tests/test_acceptance.py``'s checks on the
configurations in ``ACCEPTANCE``. There are no options.

Per case and filter it prints the largest relative change |c - p| / |p| in
``est_rep``, ``errors``, ``sigma3`` and ``nees`` over the entries with
|p| > ``FLOOR`` (0 when every such entry is bitwise equal; a NaN or an inf
on one side only reads inf), the relinearized updates out of all updates on
each side, the failed trials on each side, and then every step whose
iteration count differs. Then both trees' acceptance figures, to 12
significant figures, with their relative change.
"""
from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# record_digest puts its sibling src/ first on sys.path, so manikf is that tree's
from record_digest import FILTERS, SCENARIOS, SEED, TRIALS, VARIANTS
from manikf.harness import run_trial, summarize  # noqa: E402
from manikf.trajectory import ScenarioConfig  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
FIELDS = ("est_rep", "errors", "sigma3", "nees")
FLOOR = 1e-6  # entries at or below this size in the parent are left out of the ratio
# the acceptance checks' configurations (tests/test_acceptance.py): circle
# consistency over 50 trials, extrinsic calibration over 6 and paired drift over 50
ACCEPTANCE = {
    "circle": (dict(scenario="circle", seed=0, duration=20.0, dt=0.01, nmax=2), 50),
    "extrinsic": (dict(scenario="fast-rotation", seed=0, duration=10.0, dt=0.02, nmax=4), 6),
    "drift": (dict(scenario="fast-rotation", seed=0, duration=10.0, dt=0.02, nmax=4), 50),
}
WORKER = "import sys; sys.path.insert(0, 'tools'); import record_diff; record_diff.write_records(sys.argv[1])"


def acceptance_figures() -> dict:
    """The figures the acceptance checks gate on, on the tree imported."""
    cfg, trials = ACCEPTANCE["circle"]
    summary = summarize([run_trial(ScenarioConfig(**cfg), trial=i) for i in range(trials)])
    cfg, trials = ACCEPTANCE["extrinsic"]
    ext = [run_trial(ScenarioConfig(**cfg), trial=i) for i in range(trials)]
    cfg, trials = ACCEPTANCE["drift"]
    cfg = ScenarioConfig(**cfg)
    ratios = np.array([
        run_trial(dataclasses.replace(cfg, filter="quat"), trial=i).final_drift
        / run_trial(cfg, trial=i).final_drift for i in range(trials)])
    return {
        "circle mean NEES": summary["mean_nees"],
        "circle containment": summary["containment_rate"],
        "extrinsic max rotation error (deg)": max(r.final_ext_rot_deg for r in ext),
        "extrinsic max position error (m)": max(r.final_ext_pos for r in ext),
        "drift median ratio": float(np.median(ratios)),
        f"drift wins (of {trials})": float(np.sum(ratios >= 1.0)),
    }


def case_records() -> dict:
    """{(case, filter): {field: one array per trial}} of the digest's cases,
    with ``iterations`` and ``failed`` among the fields."""
    out = {}
    for name, scenario in {**SCENARIOS, **VARIANTS}.items():
        for filt in FILTERS:
            cfg = ScenarioConfig(seed=SEED, filter=filt, **scenario)
            recs = [run_trial(cfg, trial) for trial in TRIALS]
            fields = {f: [getattr(r, f) for r in recs] for f in FIELDS}
            fields["iterations"] = [np.asarray(r.iterations, dtype=np.int64) for r in recs]
            fields["failed"] = [np.array(r.failed) for r in recs]
            out[name, filt] = fields
    return out


def write_records(path: str) -> None:
    """Run the cases and the acceptance checks on the tree imported and save
    them to ``path`` (npz, keys "case|filter|field|trial" and "acceptance|name")."""
    arrays = {f"{name}|{filt}|{field}|{i}": a
              for (name, filt), fields in case_records().items()
              for field, per_trial in fields.items() for i, a in enumerate(per_trial)}
    arrays.update({f"acceptance|{k}": np.array(v) for k, v in acceptance_figures().items()})
    np.savez(path, **arrays)


def read_records(path: Path) -> tuple[dict, dict]:
    """write_records' file back as (case records, acceptance figures)."""
    records, figures = {}, {}
    with np.load(path) as data:
        for key in data.files:
            parts = key.split("|")
            if parts[0] == "acceptance":
                figures[parts[1]] = float(data[key])
                continue
            name, filt, field, trial = parts
            per_trial = records.setdefault((name, filt), {}).setdefault(field, {})
            per_trial[int(trial)] = data[key]
    for fields in records.values():
        for field, per_trial in fields.items():
            fields[field] = [per_trial[i] for i in sorted(per_trial)]
    return records, figures


def max_relative_change(parent: np.ndarray, change: np.ndarray) -> float:
    """Largest |c - p| / |p| over the entries with |p| > FLOOR of the rows
    both have, and every entry that is NaN or inf on one side only, which
    reads inf; bitwise-equal entries (inf or NaN on both sides too) read 0."""
    rows = min(len(parent), len(change))
    p, c = parent[:rows], change[:rows]
    same = (p == c) | (np.isnan(p) & np.isnan(c))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(same, 0.0, np.abs(c - p) / np.abs(p))
    rel = rel[~(np.abs(p) <= FLOOR) | ~np.isfinite(c)]  # a NaN in the parent stays in
    rel[np.isnan(rel)] = np.inf  # a NaN or inf on one side only
    return float(rel.max(initial=0.0))


def compare(parent: dict, change: dict) -> dict:
    """The diff of one case and filter's records ({field: one array per trial}
    on each side): per field the largest relative change over all trials,
    the iteration flips as (trial, step, parent, change) with steps counted
    from 1 as run_trial's failure message counts them, the relinearized
    and all updates and the failed flags of each side, and the trials whose
    record lengths differ as (trial, parent rows, change rows)."""
    out = {f: max(max_relative_change(p, c) for p, c in zip(parent[f], change[f]))
           for f in FIELDS}
    out["flips"] = [(trial, k + 1, int(p[k]), int(c[k]))  # step k + 1 made record row k + 1
                    for trial, (p, c) in enumerate(zip(parent["iterations"], change["iterations"]))
                    for k in range(min(len(p), len(c))) if p[k] != c[k]]
    for side, rec in (("parent", parent), ("change", change)):
        its = rec["iterations"]
        out[f"relinearized_{side}"] = (sum(int((i > 0).sum()) for i in its), sum(map(len, its)))
        out[f"failed_{side}"] = [bool(f) for f in rec["failed"]]
    out["lengths"] = [(trial, len(p), len(c))
                      for trial, (p, c) in enumerate(zip(parent["est_rep"], change["est_rep"]))
                      if len(p) != len(c)]
    return out


def report(name: str, filt: str, diff: dict) -> list[str]:
    """compare's result as printed lines."""
    fields = "  ".join(f"{f} {diff[f]:<8.2g}" for f in FIELDS)
    relin = "{}/{} -> {}/{}".format(*diff["relinearized_parent"], *diff["relinearized_change"])
    failed = "{} -> {}".format(*("".join("F" if f else "." for f in diff[f"failed_{side}"])
                                 for side in ("parent", "change")))
    lines = [f"{name:18s} {filt:6s} {fields}  relinearized {relin}  failed {failed}"]
    lines += [f"{'':25s} trial {t} has {p} rows -> {c}" for t, p, c in diff["lengths"]]
    lines += [f"{'':25s} trial {t} step {k}: iterations {p} -> {c}"
              for t, k, p, c in diff["flips"]]
    return lines


def acceptance_lines(parent: dict, change: dict) -> list[str]:
    lines = [f"{'acceptance':36s} {'parent':>20s} {'change':>20s}  relative change"]
    for key, p in parent.items():
        c = change[key]
        rel = 0.0 if p == c else abs(c - p) / abs(p)
        lines.append(f"{key:36s} {p:20.12g} {c:20.12g}  {rel:.2g}")
    return lines


def main() -> int:
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rev = subprocess.run(["git", "rev-parse", sys.argv[1]], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        trees["parent"].mkdir()
        subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive, check=True)
        shutil.copytree(ROOT / "src", trees["change"] / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        for tree in trees.values():
            (tree / "tools").mkdir()
            for script in ("record_digest.py", "record_diff.py"):
                shutil.copy(ROOT / "tools" / script, tree / "tools")
        # the two trees at once, one process each
        procs = {side: subprocess.Popen([sys.executable, "-c", WORKER, str(tree / "out.npz")],
                                        cwd=tree, env=env)
                 for side, tree in trees.items()}
        if any([proc.wait() for proc in procs.values()]):
            return 1
        (p_cases, p_acc), (c_cases, c_acc) = (read_records(tree / "out.npz")
                                              for tree in trees.values())
    print(f"parent {rev}, change: the working tree's src/")
    for name, filt in p_cases:
        print("\n".join(report(name, filt, compare(p_cases[name, filt], c_cases[name, filt]))))
    print("\n".join(acceptance_lines(p_acc, c_acc)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
