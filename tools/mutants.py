"""Mutation check of the test suite: does some test fail on each known fault?

    python3 tools/mutants.py

Each mutant is one edit (file, old text, new text) that puts a fault into
the code: a Jacobian block scaled by 1.001 or a term dropped, a chart
kernel's switch point or zero-velocity branch wrong, the rotation check's
determinant or orthonormality bound wrong, the basis cache keyed on too few
bytes, the scan check of a trajectory blind to all but its first step or
its step views taken from the wrong step, the noise check blind to negative
off-diagonal entries, the prior's factor left unchecked or its upper half
not zeroed, a step of the filter or of the trial record left out or taken
against the wrong row, the posterior's product taken without syrk, the
trial CSV's numbers written short of a round trip.
Each row also names the test expected to kill it. ``src/``, ``tests/``,
``perfbench/`` (whose tracer the tests load), ``tools/`` (whose record diff
they load) and ``pyproject.toml`` are copied into a temporary directory
once; for each mutant the edit is made there and the named test runs alone
on the copy, with one BLAS thread. The mutant is killed when that test
fails; its line gives the test's message, so a wall-clock budget that
failed instead shows.
If the named test passes, the Tier-1 tests not marked slow run with ``-x``,
and a failure counts once it recurs when its test runs alone: a test that
passes alone failed by chance (a wall-clock budget on a busy machine), and
the suite runs once more. Such a kill is marked, as the row names the wrong
test. The unmutated copy runs the whole suite first and must pass, or no
kill would show anything.

Exit status 1 when a mutant survives, when its old text is not in its file
exactly once or its named test is not found (the table no longer matches the
code), or when the unmutated suite fails.
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
MAN = "src/manikf/manifolds.py"
SPHERE = "src/manikf/sphere.py"
FILTER = "src/manikf/filter.py"
HARNESS = "src/manikf/harness.py"
BLOCKS = "tests/process_blocks.py"
SWEEP = "tests/test_acceptance.py::test_all_jacobians_match_finite_differences"
SO3_SCALAR = "tests/test_so3.py::test_kernels_match_numpy_scalar_formulas"
DIFFS_FD = "tests/test_manifolds.py::test_diffs_match_fd"
FIXED_POINT = "tests/test_filter.py::test_update_reaches_the_fixed_point_from_a_large_error"
ROT_STACKS = "tests/test_so3.py::test_check_rotation_takes_stacks"

# (name, file, old text, new text, the test expected to kill it)
MUTANTS = (
    # one Jacobian entry or block wrong: the acceptance sweep's finite differences
    ("li df_dx v/b_a x1.001", LI,
     'out[CTRL["v"], TAN["ba"]] = -rot', 'out[CTRL["v"], TAN["ba"]] = -1.001 * rot', SWEEP),
    ("li dh_dx R_ext x1.001", LI,
     'out[:, TAN["R_ext"]] = c[m:]', 'out[:, TAN["R_ext"]] = 1.001 * c[m:]', SWEEP),
    ("baseline _omega row 0 x1.001", QB,
     "np.array([0.0, -x, -y, -z,", "np.array([0.0, -1.001 * x, -1.001 * y, -1.001 * z,", SWEEP),
    ("baseline _drot_dq [0,0,0] x1.001", QB,
     "np.array([w, x, -y, -z, -z,", "np.array([1.001 * w, x, -y, -z, -z,", SWEEP),
    ("baseline q constraint row x1.001", QB,
     'out[n, BREP["q"]] = 2.0 * q', 'out[n, BREP["q"]] = 2.002 * q', SWEEP),
    ("block attitude df_dx x1.001", BLOCKS,
     "df_dx=lambda x, u: skew(x.reshape(3, 3).T @ u),",
     "df_dx=lambda x, u: 1.001 * skew(x.reshape(3, 3).T @ u),", SWEEP),
    ("block bearing d'' term dropped", BLOCKS,
     "out[3, 2] = (x @ v) * d_second(rho) / dp**2", "out[3, 2] = 0.0", SWEEP),
    ("compound diff_u block 1e-300", MAN,
     "self._eye_u[self._et, self._et] = self._eye_v[self._et, self._ec] = 1.0\n",
     "self._eye_u[self._et, self._et] = self._eye_v[self._et, self._ec] = 1.0\n"
     "        self._eye_u[0, -1] = 1e-300\n",
     "tests/test_manifolds.py::test_compound_matches_its_parts_bitwise"),
    # the zero-velocity branches of diff_v and the basis cache
    ("SO3 zero-velocity G_v x1.001", MAN,
     "return x.copy(), _EYE3, _EYE3", "return x.copy(), _EYE3, 1.001 * _EYE3", DIFFS_FD),
    ("S2 zero-velocity G_x x1.001", MAN,
     "return x.copy(), _EYE2, c", "return x.copy(), 1.001 * _EYE2, c", DIFFS_FD),
    ("basis cache keyed on x[:2]", SPHERE,
     "key = x.tobytes()", "key = x[:2].tobytes()",
     "tests/test_sphere.py::test_basis_cache_returns_each_point_its_own_read_only_basis"),
    # chart switch points
    # (a series up to 0.1 errs by 1.5e-11 in Exp and 1.9e-12 in A; moved
    # between 1e-6 and 1e-2 either way, each branch stays within 1.1e-16)
    ("so3_exp series up to 0.1", SO3,
     "    if theta < SMALL_ANGLE:\n        a = 1.0",
     "    if theta < 0.1:\n        a = 1.0", SO3_SCALAR),
    ("mat_a series up to 0.1", SO3,
     "    if theta < SMALL_ANGLE:\n        b = 0.5",
     "    if theta < 0.1:\n        b = 0.5", SO3_SCALAR),
    ("so3_log near-pi branch at s<=1e-12", SO3,
     "near_pi &= s <= 1e-6", "near_pi &= s <= 1e-12",
     "tests/test_baseline.py::test_rot_to_quat_roundtrip"),
    # the rotation check: a triple product of the wrong rows is 0 on a
    # reflection, and an unsquared bound on err2 takes errors up to 1e-3
    ("check_rotation det on row 1 twice", SO3,
     "det = np.vecdot(r[..., 0, :],", "det = np.vecdot(r[..., 1, :],", ROT_STACKS),
    ("check_rotation err2 bound unsquared", SO3,
     "(err2 > ROTATION_TOL**2)", "(err2 > ROTATION_TOL)", ROT_STACKS),
    # (at |x| = 1e-3, any two points under 1e-3 rad apart would come out 0 apart)
    ("sphere antipode threshold unscaled", SPHERE,
     "same = s < 1e-9 * np.vecdot(x, x)", "same = s < 1e-9",
     "tests/test_sphere.py::test_boxminus_recovers_small_steps_at_every_radius"),
    # the scan rows' one check per trajectory, and its per-step views
    ("stack check sees only the first step", LI,
     "cls(p_f.reshape(-1, 3), q.reshape(-1, 3), g.reshape(-1, 3))", "cls(p_f[0], q[0], g[0])",
     "tests/test_lidar_inertial.py::test_scan_steps_check_every_step_once"),
    ("step views taken from the wrong step", LI,
     "for p_f_k, q_k, g_k in zip(p_f, q, g):", "for p_f_k, q_k, g_k in zip(p_f, q, g[::-1]):",
     "tests/test_lidar_inertial.py::test_scan_steps_are_read_only_views_of_the_stacks"),
    # the filter
    # (an indefinite or semidefinite P leaves a finite partial factor with info > 0)
    ("prior factor info unchecked", FILTER,
     "if info != 0 or not np.isfinite(l_prior).all():", "if not np.isfinite(l_prior).all():",
     "tests/test_filter.py::test_semidefinite_prior_raises"),
    # (the products with L_P read its upper half, which then holds P's)
    ("prior factor not cleaned (clean=0)", FILTER,
     "dpotrf(state.P, lower=1, clean=1)", "dpotrf(state.P, lower=1, clean=0)",
     "tests/test_filter.py::test_single_linearization_matches_innovation_form"),
    ("diagonal check counts R > 0", FILTER,
     "np.count_nonzero(R != 0.0)", "np.count_nonzero(R > 0.0)",
     "tests/test_filter.py::test_update_rejects_correlated_or_nonpositive_noise"),
    ("stop rule 1/2 -> 5", FILTER,
     "< (0.5 * CONVERGENCE_TOL) ** 2", "< (5.0 * CONVERGENCE_TOL) ** 2", FIXED_POINT),
    ("posterior without J'", FILTER,
     "g = jmat.dot(scipy.linalg.blas.dtrsm(", "g = np.asarray(scipy.linalg.blas.dtrsm(",
     FIXED_POINT),
    # (a general product rounds the triangles of G G^T apart at n = 26)
    ("posterior product without syrk", FILTER,
     "FilterState(x_next, g.dot(g.T))", "FilterState(x_next, g.dot(g.T.copy()))",
     "tests/test_filter.py::test_single_linearization_matches_innovation_form"),
    ("predict without fw Q fw^T", FILTER,
     "p = fx.dot(state.P).dot(fx.T) + fw.dot(Q).dot(fw.T)", "p = fx.dot(state.P).dot(fx.T)",
     "tests/test_acceptance.py::test_linear_problem_reduces_to_textbook_kf"),
    # the trial record
    ("NEES factor lower triangle", HARNESS,
     "fac = np.linalg.cholesky(p, upper=True)", "fac = np.linalg.cholesky(p)",
     "tests/test_harness.py::test_record_matches_the_per_step_reference"),
    ("errors against truth[k+1]", HARNESS,
     "errors = man.boxminus(traj.truth[: k_done + 1], xs)",
     "errors = man.boxminus(np.roll(traj.truth[: k_done + 1], -1, axis=0), xs)",
     "tests/test_harness.py::test_zero_noise_exact_init_has_negligible_drift"),
    ("CSV error and sigma3 at 15 digits", HARNESS,
     '"%d,%.17g,%s,%d,%.17g,%.17g,%.17g,%.17g"', '"%d,%.17g,%s,%d,%.17g,%.17g,%.15g,%.15g"',
     "tests/test_harness.py::test_csv_schema"),
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


def confirmed_failure(tree: Path) -> str | None:
    """The suite's first failure on ``tree`` that recurs when its test runs
    alone (None if there is none; after two that did not, the second)."""
    for _ in range(2):
        failure = run_tests(tree)
        if failure is None or run_tests(tree, failure.split()[0]) is not None:
            break
    return failure


def verdict(tree: Path, killer: str) -> tuple[str, bool]:
    """What became of the mutant now in ``tree``, and whether it counts as
    bad: killed by its named test ``killer``, by another test, or survived."""
    failure = run_tests(tree, killer)
    if failure is not None and failure.startswith("pytest exit status"):
        return f"STALE: named test {killer}: {failure}", True
    if failure is not None:
        return f"killed by {failure}", False
    failure = confirmed_failure(tree)
    if failure is not None:
        return f"killed by {failure} (not by the named {killer})", False
    return "SURVIVED", True


def main() -> int:
    started = time.perf_counter()
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for sub in ("src", "tests", "perfbench", "tools"):
            shutil.copytree(ROOT / sub, tree / sub,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        failed = confirmed_failure(tree)
        secs = time.perf_counter() - started
        print(f"{'unmutated':<36} {'FAILS: ' + failed if failed else 'passes'}  {secs:.1f} s",
              flush=True)
        if failed:
            return 1
        for name, rel, old, new, killer in MUTANTS:
            path = tree / rel
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{name:<36} STALE: old text found {text.count(old)} times in {rel}")
                bad += 1
                continue
            path.write_text(text.replace(old, new))
            mutant_started = time.perf_counter()
            try:
                line, is_bad = verdict(tree, killer)
            finally:
                path.write_text(text)
            print(f"{name:<36} {line}  {time.perf_counter() - mutant_started:.1f} s", flush=True)
            bad += is_bad
    print(f"{len(MUTANTS)} mutants, {bad} survived or stale, "
          f"wall time {time.perf_counter() - started:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
