"""Benchmark of the manikf manifold filter: one workload per run.

    python3 perfbench/run.py --workload circle --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. ``--trace 0`` times whole rounds of the workload's trials for at
least ``--seconds`` and prints the end-to-end metrics, with times scaled to
a reference machine speed (see calibration.py). ``--trace 1`` runs
every trial of those rounds once untraced and once with every layer traced,
and prints the per-layer metrics; the spans are written to
``.perfbench_out/``. Both check the outputs (see checks.py). The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: ``correct`` covers the checks of the first
round, and ``attempted`` and ``failed`` count trials and each round's
consistency check. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_out"
BLAS_THREADS = 1

# per-layer metric -> (span name, "calls" or "us"), per filter step
LAYER_SPANS = {
    "so3.exp.calls": ("so3.exp", "calls"),
    "so3.exp.us": ("so3.exp", "us"),
    "so3.log.calls": ("so3.log", "calls"),
    "so3.log.us": ("so3.log", "us"),
    "so3.mat_a.calls": ("so3.mat_a", "calls"),
    "so3.mat_a.us": ("so3.mat_a", "us"),
    "sphere.basis.calls": ("sphere.basis", "calls"),
    "sphere.basis.us": ("sphere.basis", "us"),
    "sphere.ops.calls": ("sphere.ops", "calls"),
    "sphere.ops.us": ("sphere.ops", "us"),
    "manifolds.boxplus.us": ("manifolds.boxplus", "us"),
    "manifolds.boxminus.us": ("manifolds.boxminus", "us"),
    "manifolds.oplus.us": ("manifolds.oplus", "us"),
    "manifolds.diff_u.us": ("manifolds.diff_u", "us"),
    "manifolds.diff_u.calls": ("manifolds.diff_u", "calls"),
    "manifolds.diff_v.us": ("manifolds.diff_v", "us"),
    "model.f.us": ("model.f", "us"),
    "model.df_dx.us": ("model.df_dx", "us"),
    "model.df_dw.us": ("model.df_dw", "us"),
    "model.h.us": ("model.h", "us"),
    "model.h.calls": ("model.h", "calls"),
    "model.dh_dx.us": ("model.dh_dx", "us"),
    "model.dh_dv.us": ("model.dh_dv", "us"),
    "baseline.normalize.us": ("baseline.normalize", "us"),
    "filter.predict.us": ("filter.predict", "us"),
    "filter.update.us": ("filter.update", "us"),
    "filter.gain_solve.us": ("filter.gain_solve", "us"),
    "filter.gain_solve.calls": ("filter.gain_solve", "calls"),
    "filter.cond.us": ("filter.cond", "us"),
    "harness.self.us": ("harness.run_trial", "us"),
}
UNITS = {"calls": "calls/step", "us": "us/step"}


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "manikf").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def blas_description(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def main(argv=None) -> int:
    # BLAS reads its thread count when numpy loads it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "manikf" / "__init__.py").is_file():
        print(f"error: no manikf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # numpy and scipy load before the timed set-up, which covers manikf only
    import numpy as np
    import scipy

    import calibration
    import checks
    import tracing
    import workloads as wl

    args = parse_args(argv, sorted(wl.WORKLOADS))
    workload = wl.WORKLOADS[args.workload]

    calibrator = tracer = None
    if args.trace:  # one set-up, its trajectory generation traced
        tracer = tracing.Tracer()
        setup = wl.set_up(workload, args.seed, tracer)
        _, generate_ns = tracer.self_times(tracing.GENERATE_SPAN)
        tracer.clear()
    else:
        calibrator = calibration.Calibrator()
        setup, setup_times = wl.repeated_set_up(workload, args.seed, calibrator)
    if Path(setup.prog.harness.__file__).resolve().parent != (SRC / "manikf").resolve():
        print(f"error: manikf imported from {setup.prog.harness.__file__}", file=sys.stderr)
        return 2
    steps = setup.cfg.n_steps
    capture = wl.Capture(steps)
    rounds = wl.timed_rounds(setup, workload, args.seconds, capture, calibrator, tracer)
    first = rounds.first()
    checks_run = checks.run_checks(setup, workload, first, capture)

    filters = " + ".join(wl.filter_names(workload))
    print(f"workload {workload.name}, seed {args.seed} (scenario seed "
          f"{setup.cfg.seed}), seconds {args.seconds:g}, trace {args.trace}")
    print(f"source: git {git_sha()}, manikf sources sha256 {source_digest()}")
    print(f"python {platform.python_version()}, numpy {np.__version__}, scipy "
          f"{scipy.__version__}, BLAS {blas_description(np)}, {BLAS_THREADS} BLAS "
          f"thread(s) of {len(os.sched_getaffinity(0))} cpus")
    print(f"inputs: {workload.trials} seeded + {workload.trials} consistency (scenario seed "
          f"{wl.CONSISTENCY_SEED}) trajectories x {steps} steps of "
          f"{setup.cfg.scenario} (dt {setup.cfg.dt:g}, nmax {setup.cfg.nmax}), filters "
          f"{filters}, {wl.measurement_rows(setup, workload):.1f} measurement rows per update")
    print(f"rounds {rounds.count}{' (each trial untraced, then traced)' if args.trace else ''}; "
          f"trials and consistency checks attempted {rounds.attempted}, failed {rounds.failed}")
    for c in checks_run:
        print(f"check {c.name}: {'pass' if c.passed else 'FAIL'}: {c.detail}")
    c = rounds.consistency[0]
    print(f"consistency {c.name}, first round: {'pass' if c.passed else 'FAIL'}: {c.detail}; "
          f"failed in {sum(not c.passed for c in rounds.consistency)} of "
          f"{rounds.count} rounds")

    metrics = {}
    if not args.trace:
        drifts = [checks.late_drift(r.records["ikfom"], setup.prog.lidar_inertial.TAN["p"])
                  for r in first]
        untraced = rounds.untraced
        print(f"wall clock: setup {statistics.median(s for s, _ in setup_times):.4f} s, "
              f"trial {statistics.median(r.seconds for r in untraced):.4f} s, "
              f"{wl.rate(untraced):.2f} steps/s; calibration kernel median "
              f"{statistics.median(calibrator.samples):.4f} s over {len(calibrator.samples)} "
              f"samples, against the {calibration.REFERENCE_S} s reference")
        metrics["setup_s"] = (statistics.median(s * k for s, k in setup_times), "s")
        metrics["trial_s"] = (statistics.median(r.seconds * r.scale for r in untraced), "s")
        metrics["steps_per_s"] = (wl.rate(untraced, scaled=True), "steps/s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB")
        metrics["drift_m"] = (statistics.fmean(drifts), "m")
    else:
        spans, trial_ns = tracer.self_times(tracing.TRIAL_SPAN)
        traced = rounds.traced
        traced_steps = sum(r.steps for r in traced)
        for metric, (span, kind) in LAYER_SPANS.items():
            calls, own_ns = spans.get(span, (0, 0))
            value = calls if kind == "calls" else own_ns / 1e3
            metrics[metric] = (value / traced_steps, UNITS[kind])
        iterations = [it for r in traced for rec in r.records.values() for it in rec.iterations]
        metrics["filter.linearizations"] = (1.0 + statistics.fmean(iterations), "1/update")
        metrics["filter.meas_rows"] = (wl.measurement_rows(setup, workload), "rows/update")
        metrics["trajectory.generate_s"] = (generate_ns / 1e9 / len(setup.inputs), "s")
        metrics["trace.overhead"] = (100.0 * (wl.rate(rounds.untraced) / wl.rate(traced) - 1.0),
                                     "%")
        metrics["trace.trial.us"] = (trial_ns / 1e3 / traced_steps, "us/step")
        layer_sum = sum(v for m, (v, u) in metrics.items() if m in LAYER_SPANS and u == "us/step")
        print(f"layer self times sum to {layer_sum:.3f} us/step of "
              f"{metrics['trace.trial.us'][0]:.3f} us/step traced trial time "
              f"over {traced_steps} filter steps")
        out = TRACE_DIR / f"spans-{workload.name}-seed{args.seed}.npz"
        tracer.write(out)
        print(f"spans written to {out.relative_to(ROOT)}")

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = all(c.passed for c in checks_run)
    print(json.dumps({
        "correct": correct,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
