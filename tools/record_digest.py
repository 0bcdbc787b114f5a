"""SHA-256 digest of ``run_trial`` records over a fixed set of cases.

    python3 tools/record_digest.py

Runs trials 0-2 of three scenarios (circle, fast-rotation, and a circle
with 200 points per update), of the circle again with the iteration cap at
the first linearization (nmax 0), and of fast-rotation again with the
baseline's constraints left to normalization alone (baseline_mode "hard"),
each through the manifold filter and the quaternion baseline, all at
scenario seed 1024, and hashes every field of each record that a numerical
change could move. Two checkouts whose filters compute bitwise the same
numbers print the same digests. Two lines per case:

* ``estimates``: what the filter computed -- the estimates, 3-sigma
  envelopes, iteration counts, failure state and final drift; it ends in how
  many of the case's updates relinearized (took more than one linearization)
  out of all it ran: the updates that a change to the iterated update's
  later steps can move;
* ``metrics``: what the record measures against the truth through the chart
  and covariance kernels -- errors, NEES and the final extrinsic errors --
  which a change to those kernels alone moves, by rounding.

Then the digest of all estimates lines and of all metrics lines, the same
for each filter's lines alone (a change to one filter moves only its two),
then a ``trajectories`` line: the digest of the generated inputs of the same
three scenarios and trials (truth, IMU readings, and each scan row's point,
normal and anchor), which moves only when scan or trajectory generation does.

The package is imported from the ``src/`` directory next to this script.
numpy's BLAS runs one thread unless ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS`` is already set, so the digests
can be compared across thread counts, as in

    OPENBLAS_NUM_THREADS=2 OMP_NUM_THREADS=2 MKL_NUM_THREADS=2 python3 tools/record_digest.py
"""
from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
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
# cases that differ from a scenario above only in the filter's settings: same inputs
VARIANTS = {
    "circle-nmax0": dict(SCENARIOS["circle"], nmax=0),
    "fast-rotation-hard": dict(SCENARIOS["fast-rotation"], baseline_mode="hard"),
}
FILTERS = ("ikfom", "quat")


def _bytes(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def estimate_bytes(rec) -> bytes:
    """The record's filter outputs as bytes, in a fixed order."""
    out = _bytes(rec.est_rep, rec.sigma3, np.asarray(rec.iterations, dtype=np.int64),
                 np.array([rec.final_drift]))
    return out + repr((rec.failed, rec.failure)).encode()


def metric_bytes(rec) -> bytes:
    """The record's errors against the truth as bytes, in a fixed order."""
    return _bytes(rec.errors, rec.nees, np.array([rec.final_ext_rot_deg, rec.final_ext_pos]))


def trajectory_bytes(traj) -> bytes:
    """The generated truth, IMU stream and scan rows as bytes, in a fixed order."""
    out = [traj.truth.tobytes(), traj.imu.tobytes()]
    # row by row: each row's point, normal and anchor
    out += [np.concatenate([scan.p_f, scan.g, scan.q], axis=1).tobytes()
            for scan in traj.features]
    return b"".join(out)


def main() -> None:
    kinds = ("estimates", "metrics")
    totals = {key: hashlib.sha256()
              for key in kinds + tuple(f"{filt} {kind}" for filt in FILTERS for kind in kinds)}
    for name, scenario in {**SCENARIOS, **VARIANTS}.items():
        for filt in FILTERS:
            cfg = ScenarioConfig(seed=SEED, filter=filt, **scenario)
            est, met, relinearized, updates = hashlib.sha256(), hashlib.sha256(), 0, 0
            for trial in TRIALS:
                rec = run_trial(cfg, trial)
                est.update(estimate_bytes(rec))
                met.update(metric_bytes(rec))
                relinearized += sum(i > 0 for i in rec.iterations)
                updates += len(rec.iterations)
            print(f"{name:18s} {filt:6s} estimates {est.hexdigest()} {relinearized:4d}/{updates}")
            print(f"{name:18s} {filt:6s} metrics   {met.hexdigest()}")
            for kind, digest in zip(kinds, (est, met)):
                for key in (kind, f"{filt} {kind}"):
                    totals[key].update(digest.digest())
    for kind, total in totals.items():
        print(f"{'all ' + kind:35s} {total.hexdigest()}")
    inputs = hashlib.sha256()
    for scenario in SCENARIOS.values():
        for trial in TRIALS:
            cfg = ScenarioConfig(seed=SEED, **scenario)
            inputs.update(trajectory_bytes(generate_trajectory(cfg, trial)))
    print(f"{'trajectories':35s} {inputs.hexdigest()}")


if __name__ == "__main__":
    main()
