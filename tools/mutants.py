"""Mutation check of the test suite: does some test fail on each known fault?

    python3 tools/mutants.py

Each mutant is one edit (file, old text, new text) that puts a fault into
the code: a Jacobian block scaled by 1.001 or a term dropped, a chart
kernel's switch point moved, a step of the filter or of the trial record
left out or taken against the wrong row. ``src/``, ``tests/``,
``perfbench/`` (whose tracer the tests load) and ``pyproject.toml`` are
copied into a temporary directory once; for each mutant the edit is made
there, and the Tier-1 tests not marked slow run on the copy with ``-x`` and
one BLAS thread. The mutant is killed when a test fails and fails again
when run alone; its line names that test with the start of its message. A
test that passes alone failed by chance (a wall-clock budget on a busy
machine), and the suite runs once more. The unmutated copy runs first and
must pass, or no kill would show anything.

Exit status 1 when a mutant survives, when its old text is not in its file
exactly once (the table no longer matches the code), or when the unmutated
suite fails.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LI = "src/manikf/lidar_inertial.py"
QB = "src/manikf/baseline.py"
SO3 = "src/manikf/so3.py"
FILTER = "src/manikf/filter.py"
HARNESS = "src/manikf/harness.py"
BLOCKS = "tests/process_blocks.py"

# (name, file, old text, new text)
MUTANTS = (
    # one Jacobian entry or block wrong: the acceptance sweep's finite differences
    ("li df_dx v/b_a x1.001", LI,
     'out[CTRL["v"], TAN["ba"]] = -rot', 'out[CTRL["v"], TAN["ba"]] = -1.001 * rot'),
    ("li dh_dx R_ext x1.001", LI,
     'out[:, TAN["R_ext"]] = cross_rows(', 'out[:, TAN["R_ext"]] = 1.001 * cross_rows('),
    ("baseline _omega row 0 x1.001", QB,
     "[[0.0, -x, -y, -z],", "[[0.0, -1.001 * x, -1.001 * y, -1.001 * z],"),
    ("baseline _drot_dq [0,0,0] x1.001", QB,
     "np.array([w, x, -y, -z, -z,", "np.array([1.001 * w, x, -y, -z, -z,"),
    ("baseline q constraint row x1.001", QB,
     'out[n, BREP["q"]] = 2.0 * q', 'out[n, BREP["q"]] = 2.002 * q'),
    ("block attitude df_dx x1.001", BLOCKS,
     "df_dx=lambda x, u: skew(x.reshape(3, 3).T @ u),",
     "df_dx=lambda x, u: 1.001 * skew(x.reshape(3, 3).T @ u),"),
    ("block bearing d'' term dropped", BLOCKS,
     "out[3, 2] = (x @ v) * d_second(rho) / dp**2", "out[3, 2] = 0.0"),
    ("compound diff_u block 1e-300", "src/manikf/manifolds.py",
     "self._eye_u[self._et, self._et] = self._eye_v[self._et, self._ec] = 1.0\n",
     "self._eye_u[self._et, self._et] = self._eye_v[self._et, self._ec] = 1.0\n"
     "        self._eye_u[0, -1] = 1e-300\n"),
    # chart switch points
    # (a series up to 0.1 errs by 1.5e-11 in Exp and 1.9e-12 in A; moved
    # between 1e-6 and 1e-2 either way, each branch stays within 1.1e-16)
    ("so3_exp series up to 0.1", SO3,
     "    if theta < SMALL_ANGLE:\n        a = 1.0",
     "    if theta < 0.1:\n        a = 1.0"),
    ("mat_a series up to 0.1", SO3,
     "    if theta < SMALL_ANGLE:\n        b = 0.5",
     "    if theta < 0.1:\n        b = 0.5"),
    ("so3_log near-pi branch at s<=1e-12", SO3,
     "near_pi = (c <= -1.0 + 1e-6) & (s <= 1e-6)",
     "near_pi = (c <= -1.0 + 1e-6) & (s <= 1e-12)"),
    # (at |x| = 1e-3, any two points under 1e-3 rad apart would come out 0 apart)
    ("sphere antipode threshold unscaled", "src/manikf/sphere.py",
     "same = s < 1e-9 * dot_rows(x, x)", "same = s < 1e-9"),
    # the filter
    ("stop rule 1/2 -> 5", FILTER,
     "< (0.5 * CONVERGENCE_TOL) ** 2", "< (5.0 * CONVERGENCE_TOL) ** 2"),
    ("posterior without J'", FILTER,
     "g = jmat @ scipy.linalg.blas.dtrsm(", "g = scipy.linalg.blas.dtrsm("),
    ("predict without fw Q fw^T", FILTER,
     "p = fx @ state.P @ fx.T + fw @ Q @ fw.T", "p = fx @ state.P @ fx.T"),
    # the trial record
    ("NEES factor lower triangle", HARNESS,
     "fac = np.linalg.cholesky(p, upper=True)", "fac = np.linalg.cholesky(p)"),
    ("errors against truth[k+1]", HARNESS,
     "errors = man.boxminus(traj.truth[: k_done + 1], xs)",
     "errors = man.boxminus(np.roll(traj.truth[: k_done + 1], -1, axis=0), xs)"),
)


def run_tests(tree: Path, *select: str) -> str | None:
    """First failing test of the non-slow suite on ``tree``, or of the tests
    ``select`` names, with the start of its message; None if all pass."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1",
           "COLUMNS": "250"}  # pytest cuts the summary's messages to the terminal width
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-m", "not slow",
           "-p", "no:cacheprovider", "-rfE", *select]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1][:150]
    return f"pytest exit status {proc.returncode}"


def confirmed_failure(tree: Path) -> tuple[str | None, float]:
    """The suite's first failure on ``tree`` that recurs when its test runs
    alone (None if there is none; after two that did not, the second), and
    the wall time taken."""
    started = time.perf_counter()
    for _ in range(2):
        failure = run_tests(tree)
        if failure is None or run_tests(tree, failure.split()[0]) is not None:
            break
    return failure, time.perf_counter() - started


def main() -> int:
    started = time.perf_counter()
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for sub in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / sub, tree / sub,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        failed, secs = confirmed_failure(tree)
        print(f"{'unmutated':<36} {'FAILS: ' + failed if failed else 'passes'}  {secs:.1f} s",
              flush=True)
        if failed:
            return 1
        for name, rel, old, new in MUTANTS:
            path = tree / rel
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{name:<36} STALE: old text found {text.count(old)} times in {rel}")
                bad += 1
                continue
            path.write_text(text.replace(old, new))
            try:
                killer, secs = confirmed_failure(tree)
            finally:
                path.write_text(text)
            verdict = f"killed by {killer}" if killer else "SURVIVED"
            print(f"{name:<36} {verdict}  {secs:.1f} s", flush=True)
            bad += killer is None
    print(f"{len(MUTANTS)} mutants, {bad} survived or stale, "
          f"wall time {time.perf_counter() - started:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
