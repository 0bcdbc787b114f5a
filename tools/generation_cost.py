"""Time and memory of ``generate_trajectory``, and the time of ``run_trial``,
at 10, 200 and 2000 points per scan.

    python3 tools/generation_cost.py

Generates the circle scenario (seed 1, trial 0, 1 s at dt 0.01, so 100
steps) at each scan size in a fresh Python process, so that one size's
allocations do not shape the next one's peak RSS. Each process reports:

- ``us_per_step``: the median over REPEATS generations of the wall time per
  step, in microseconds;
- ``rss_growth_mb``: how far the first generation raised the process's peak
  resident set size, in MB;
- ``retained_mb``: what the generated trajectory holds once built, as
  counted by tracemalloc, in MB;
- ``trial_ms_per_step``: the minimum over TRIAL_REPEATS runs of
  ``run_trial`` (manifold filter, nmax 2) on one pre-generated circle
  trajectory of TRIAL_SECONDS[m] seconds, per step, in milliseconds.

One line per scan size, then all of them as one JSON object on the last
line. The package is imported from the ``src/`` directory next to this
script, with one BLAS thread.
"""
from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

SCAN_SIZES = (10, 200, 2000)
REPEATS = 7
SCENARIO = dict(scenario="circle", seed=1, duration=1.0, dt=0.01)
TRIAL_REPEATS = 5
TRIAL_SECONDS = {10: 2.0, 200: 2.0, 2000: 0.5}  # shorter at m = 2000, ~3 ms a step


def measure(m: int) -> dict:
    """The four figures for one scan size, in this process."""
    from manikf.harness import run_trial
    from manikf.trajectory import ScenarioConfig, generate_trajectory

    cfg = ScenarioConfig(points_per_update=m, **SCENARIO)
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    traj = generate_trajectory(cfg)
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    times = []
    for _ in range(REPEATS):
        traj = None  # free the previous trajectory before building the next
        start = time.perf_counter()
        traj = generate_trajectory(cfg)
        times.append(time.perf_counter() - start)
    traj = None
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    traj = generate_trajectory(cfg)
    retained = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()
    trial_cfg = ScenarioConfig(points_per_update=m, nmax=2,
                               **dict(SCENARIO, duration=TRIAL_SECONDS[m]))
    traj = generate_trajectory(trial_cfg)
    trial_times = []
    for _ in range(TRIAL_REPEATS):
        start = time.perf_counter()
        run_trial(trial_cfg, traj=traj)
        trial_times.append(time.perf_counter() - start)
    return {
        "m": m,
        "steps": cfg.n_steps,
        "us_per_step": 1e6 * statistics.median(times) / cfg.n_steps,
        "rss_growth_mb": (rss1 - rss0) / 1024.0,  # ru_maxrss is in KiB on Linux
        "retained_mb": retained / 2**20,
        "trial_ms_per_step": 1e3 * min(trial_times) / trial_cfg.n_steps,
    }


def main() -> None:
    if len(sys.argv) == 2:  # the per-size child process
        print(json.dumps(measure(int(sys.argv[1]))))
        return
    results = []
    for m in SCAN_SIZES:
        out = subprocess.run([sys.executable, __file__, str(m)], check=True,
                             capture_output=True, text=True).stdout
        row = json.loads(out.splitlines()[-1])
        print(f"m = {m:5d}: {row['us_per_step']:9.1f} us/step, peak RSS "
              f"+{row['rss_growth_mb']:6.1f} MB, retained {row['retained_mb']:6.1f} MB, "
              f"run_trial {row['trial_ms_per_step']:6.3f} ms/step")
        results.append(row)
    print(json.dumps({"scenario": SCENARIO, "repeats": REPEATS, "trial_repeats": TRIAL_REPEATS,
                      "trial_seconds": TRIAL_SECONDS, "results": results}))


if __name__ == "__main__":
    main()
