"""SHA-256 digest of ``run_trial`` records over a fixed set of cases.

    python3 tools/record_digest.py

Runs trials 0-2 of three scenarios (circle, fast-rotation, and a circle
with 200 points per update), each through the manifold filter and the
quaternion baseline, all at scenario seed 1024, and hashes every field of
each record that a numerical change could move: errors, 3-sigma envelopes,
NEES, the estimates, the iteration counts, the final metrics and the
failure state. Two checkouts whose filters compute bitwise the same numbers
print the same digests. One line per case, then the digest over all cases,
then a ``trajectories`` line: the digest of the generated inputs of the same
scenarios and trials (truth, IMU readings, and each scan row's point, normal
and anchor), which moves only when scan or trajectory generation does.

The package is imported from the ``src/`` directory next to this script,
with one BLAS thread, so that the digest does not depend on the thread count.
"""
from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from manikf.harness import run_trial  # noqa: E402
from manikf.trajectory import ScenarioConfig, generate_trajectory  # noqa: E402

SEED = 1024
TRIALS = (0, 1, 2)
SCENARIOS = {
    "circle": dict(scenario="circle", duration=1.0, dt=0.01, nmax=2, points_per_update=10),
    "fast-rotation": dict(scenario="fast-rotation", duration=3.0, dt=0.02, nmax=4,
                          points_per_update=10),
    "circle-200": dict(scenario="circle", duration=0.1, dt=0.01, nmax=2,
                       points_per_update=200),
}
FILTERS = ("ikfom", "quat")


def record_bytes(rec) -> bytes:
    """The record's numerical fields as bytes, in a fixed order."""
    arrays = (rec.errors, rec.sigma3, rec.nees, rec.est_rep,
              np.asarray(rec.iterations, dtype=np.int64),
              np.array([rec.final_drift, rec.final_ext_rot_deg, rec.final_ext_pos]))
    out = b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
    return out + repr((rec.failed, rec.failure)).encode()


def trajectory_bytes(traj) -> bytes:
    """The generated truth, IMU stream and scan rows as bytes, in a fixed order."""
    out = [traj.truth.tobytes(), traj.imu.tobytes()]
    for scan in traj.features:
        out += [np.concatenate([ft.p_f, ft.u_dir, ft.q]).tobytes() for ft in scan]
    return b"".join(out)


def main() -> None:
    total = hashlib.sha256()
    for name, scenario in SCENARIOS.items():
        for filt in FILTERS:
            cfg = ScenarioConfig(seed=SEED, filter=filt, **scenario)
            case = hashlib.sha256()
            for trial in TRIALS:
                case.update(record_bytes(run_trial(cfg, trial, keep_estimates=True)))
            print(f"{name:14s} {filt:6s} {case.hexdigest()}")
            total.update(case.digest())
    print(f"{'all':21s} {total.hexdigest()}")
    inputs = hashlib.sha256()
    for scenario in SCENARIOS.values():
        for trial in TRIALS:
            cfg = ScenarioConfig(seed=SEED, **scenario)
            inputs.update(trajectory_bytes(generate_trajectory(cfg, trial)))
    print(f"{'trajectories':21s} {inputs.hexdigest()}")


if __name__ == "__main__":
    main()
