"""tools/record_diff.py's comparison core, on in-memory records: no git, no
subprocess, no filter run."""
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import record_diff  # noqa: E402


def _records(seed=0):
    """One case and filter's records, shaped as run_trial's: two trials of 6 and 4 rows."""
    rng = np.random.default_rng(seed)
    rows = (6, 4)
    return {
        "est_rep": [rng.standard_normal((k, 36)) for k in rows],
        "errors": [rng.standard_normal((k, 23)) for k in rows],
        "sigma3": [rng.uniform(0.1, 1.0, (k, 23)) for k in rows],
        "nees": [rng.uniform(5.0, 40.0, k) for k in rows],
        "iterations": [rng.integers(0, 3, k - 1) for k in rows],
        "failed": [np.array(False), np.array(False)],
    }


def test_identical_records_read_zero():
    diff = record_diff.compare(_records(), _records())
    assert all(diff[f] == 0.0 for f in record_diff.FIELDS)
    assert diff["flips"] == [] and diff["lengths"] == []
    assert diff["relinearized_parent"] == diff["relinearized_change"]
    assert diff["failed_parent"] == diff["failed_change"] == [False, False]


def test_one_ulp_shows_in_its_field_only():
    for field in record_diff.FIELDS:
        change = _records()
        entry = change[field][1].reshape(-1)
        entry[-1] = np.nextafter(entry[-1], np.inf)
        diff = record_diff.compare(_records(), change)
        assert 1e-17 < diff[field] < 5e-16, (field, diff[field])
        assert all(diff[f] == 0.0 for f in record_diff.FIELDS if f != field)
        assert diff["flips"] == []


def test_an_iteration_flip_lists_its_step():
    change = _records()
    its = change["iterations"][1]
    its[2] = 5
    diff = record_diff.compare(_records(), change)
    assert diff["flips"] == [(1, 3, int(_records()["iterations"][1][2]), 5)]
    assert all(diff[f] == 0.0 for f in record_diff.FIELDS)
    assert record_diff.report("case", "ikfom", diff)[1].split() == [
        "trial", "1", "step", "3:", "iterations", str(_records()["iterations"][1][2]), "->", "5"]


def test_small_entries_and_one_sided_non_finite_values():
    parent, change = _records(), _records()
    parent["errors"][0][0, 0], change["errors"][0][0, 0] = 1e-7, 2e-7  # below the floor
    assert record_diff.compare(parent, change)["errors"] == 0.0
    for bad in (np.nan, np.inf, -np.inf):  # a parent entry under the floor, not finite after
        for small in (0.0, 1e-7):
            moved = _records()
            parent["est_rep"][0][1, 2], moved["est_rep"][0][1, 2] = small, bad
            assert record_diff.compare(parent, moved)["est_rep"] == np.inf, (small, bad)
    parent["est_rep"] = _records()["est_rep"]
    change["nees"][0][1] = np.inf
    parent["nees"][1][0] = change["nees"][1][0] = np.inf  # inf on both sides is equal
    parent["sigma3"][1][0, 0] = np.nan
    diff = record_diff.compare(parent, change)
    assert diff["nees"] == diff["sigma3"] == np.inf
