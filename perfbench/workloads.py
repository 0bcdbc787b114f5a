"""Workload table, program import, set-up and timed trial rounds.

Nothing here imports ``manikf`` at module level: set-up time includes
importing the package, so :func:`import_program` does it, and each set-up
repetition imports it afresh.
"""
from __future__ import annotations

import contextlib
import dataclasses
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional

import numpy as np

import checks

SETUP_REPEATS = 5
# trials of the first round whose update priors feed the reference update check
REFERENCE_TRIALS = 2
# Scenario seed of the consistency trajectories, the same for every benchmark
# seed. Benchmark seed s draws trial t with seed (s << 10) ^ t, which for
# t < 512 never equals 512 ^ t.
CONSISTENCY_SEED = 512

MODULES = (
    "so3",
    "sphere",
    "manifolds",
    "filter",
    "lidar_inertial",
    "baseline",
    "trajectory",
    "harness",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark input set: a scenario, a trial count and the filters run.

    A round runs ``trials`` trajectories drawn from the benchmark seed and
    ``trials`` more drawn from CONSISTENCY_SEED, whose pooled final NEES is
    the round's consistency check. ``pair`` runs the quaternion baseline
    after the manifold filter on every trajectory, as ``manikf compare``
    does; one pair is one timed trial.
    """

    name: str
    scenario: Dict[str, object]
    trials: int
    pair: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="circle",
            scenario=dict(scenario="circle", duration=1.0, dt=0.01, nmax=2,
                          points_per_update=10),
            trials=30,
        ),
        Workload(
            name="fast-rotation-pair",
            scenario=dict(scenario="fast-rotation", duration=3.0, dt=0.02, nmax=4,
                          points_per_update=10),
            trials=10,
            pair=True,
        ),
        Workload(
            name="dense-scan",
            scenario=dict(scenario="circle", duration=0.1, dt=0.01, nmax=2,
                          points_per_update=200),
            trials=48,
        ),
    )
}


def scenario_seed(seed: int) -> int:
    """ScenarioConfig seed for a benchmark seed.

    The program seeds trial t of scenario seed s with ``s ^ t``, so scenario
    seeds that differ only in their low bits share trajectories. Shifting the
    benchmark seed past every trial index keeps the sets of different seeds
    apart.
    """
    return seed << 10


def import_program() -> SimpleNamespace:
    """Import manikf afresh and return its modules by short name."""
    for name in [m for m in sys.modules if m == "manikf" or m.startswith("manikf.")]:
        del sys.modules[name]
    importlib.import_module("manikf")
    return SimpleNamespace(
        **{m: importlib.import_module("manikf." + m) for m in MODULES}
    )


@dataclass(frozen=True)
class Input:
    """One trajectory with the scenario config and trial index it was drawn
    with; ``harness.run_trial`` draws the initial-state error from both."""

    cfg: object  # manikf.trajectory.ScenarioConfig
    trial: int
    trajectory: object
    consistency: bool


@dataclass
class Setup:
    prog: SimpleNamespace
    cfg: object  # the seeded ScenarioConfig
    models: Dict[str, object]
    inputs: List[Input]
    seconds: float


def set_up(workload: Workload, seed: int, tracer=None) -> Setup:
    """Import the package, build the models and generate every trajectory,
    the generation traced if a tracer is given."""
    t0 = time.perf_counter()
    prog = import_program()
    models = {"ikfom": prog.lidar_inertial.lidar_inertial_model()}
    if workload.pair:
        models["quat"] = prog.baseline.baseline_model(augmented=True)
    cfg = prog.trajectory.ScenarioConfig(seed=scenario_seed(seed), **workload.scenario)
    fixed = dataclasses.replace(cfg, seed=CONSISTENCY_SEED)
    with tracer.installed(prog) if tracer else contextlib.nullcontext():
        inputs = [
            Input(c, i, prog.trajectory.generate_trajectory(c, i), c is fixed)
            for c in (cfg, fixed)
            for i in range(workload.trials)
        ]
    return Setup(prog, cfg, models, inputs, time.perf_counter() - t0)


def repeated_set_up(workload: Workload, seed: int, calibrator):
    """Set up SETUP_REPEATS times.

    Returns the last set-up and, per repetition, its seconds and the
    calibrator's scale.
    """
    times = []
    setup = None
    for _ in range(SETUP_REPEATS):
        calibrator.maybe_sample()
        setup = None  # free the previous repetition before building the next
        setup = set_up(workload, seed)
        times.append((setup.seconds, calibrator.scale()))
    return setup, times


@dataclass
class TrialResult:
    """One timed trial (one pair on a paired workload).

    ``records`` (filter name -> TrialRecord) is kept only where the checks
    or the per-layer figures read it; ``final_nees`` is the manifold
    filter's final-step NEES, recomputed from its final error and final P
    where a Capture ran; ``scale`` turns ``seconds`` into reference seconds
    (see calibration.py).
    """

    index: int
    seconds: float
    steps: int
    attempted: int
    failed: int
    records: Optional[Dict[str, object]]
    final_nees: Optional[float] = None
    scale: float = 1.0


class Capture:
    """Wraps ``harness.update`` to keep what the correctness checks need.

    It keeps the posterior of the latest update in ``last``. While
    ``sampling`` (the first round) it also keeps, per trial and filter, the
    last posterior state and, for the first REFERENCE_TRIALS trials, the
    prior and inputs of the first, middle and last update, for the
    reference update check.
    """

    def __init__(self, n_steps: int):
        self.sample_steps = {0, n_steps // 2, n_steps - 1}
        self.sampling = True
        self.final: Dict[tuple, object] = {}
        self.samples: List[tuple] = []
        self.key: Optional[tuple] = None
        self.last = None
        self._step = 0

    def begin(self, trial: int, filter_name: str) -> None:
        self.key = (trial, filter_name)
        self.last = None
        self._step = 0

    @contextlib.contextmanager
    def installed(self, harness):
        update = harness.update

        def captured(model, state, z, R, ctx=None, config=None):
            if (self.sampling and self.key[0] < REFERENCE_TRIALS
                    and self._step in self.sample_steps):
                self.samples.append((self.key, state.copy(), z.copy(), R.copy(), ctx))
            self._step += 1
            out = update(model, state, z, R, ctx=ctx, config=config)
            self.last = out[0]
            if self.sampling:
                self.final[self.key] = out[0]
            return out

        harness.update = captured
        try:
            yield self
        finally:
            harness.update = update


def filter_names(workload: Workload) -> tuple:
    return ("ikfom", "quat") if workload.pair else ("ikfom",)


def run_one(setup: Setup, workload: Workload, index: int, capture: Optional[Capture] = None,
            keep_records: bool = True) -> TrialResult:
    """Run input ``index`` through the workload's filters, timed as one trial."""
    harness = setup.prog.harness
    inp = setup.inputs[index]
    records, final = {}, None
    seconds = 0.0
    for name in filter_names(workload):
        cfg = dataclasses.replace(inp.cfg, filter=name)
        if capture is not None:
            capture.begin(index, name)
        t0 = time.perf_counter()
        records[name] = harness.run_trial(cfg, inp.trial, inp.trajectory)
        seconds += time.perf_counter() - t0
        if capture is not None and name == "ikfom":
            final = capture.last
    final_nees = None
    if final is not None:
        err = records["ikfom"].errors[-1]
        final_nees = float(err @ np.linalg.solve(final.P, err))
    return TrialResult(
        index, seconds,
        steps=sum(len(r.iterations) for r in records.values()),
        attempted=len(records),
        failed=sum(r.failed for r in records.values()),
        records=records if keep_records else None,
        final_nees=final_nees,
    )


def measurement_rows(setup: Setup, workload: Workload) -> float:
    """Mean residual rows per update over the workload's inputs, all filters."""
    rows = statistics.fmean(
        sum(1 if f.kind == "plane" else 3 for f in feats)
        for inp in setup.inputs
        for feats in inp.trajectory.features
    )
    if workload.pair:  # the baseline appends its constraint rows
        rows += setup.prog.baseline.N_CONSTRAINTS / 2.0
    return rows


@dataclass
class Rounds:
    """Timed trials of whole rounds and each round's consistency check;
    ``traced`` is empty unless a tracer ran."""

    untraced: List[TrialResult] = field(default_factory=list)
    traced: List[TrialResult] = field(default_factory=list)
    consistency: List[checks.Check] = field(default_factory=list)
    count: int = 0

    def first(self) -> List[TrialResult]:
        return self.untraced[: len(self.untraced) // self.count]

    # A traced trial repeats an untraced one for its timings and is not
    # counted again, so both modes give the same share of failures.
    @property
    def attempted(self) -> int:
        """Untraced trials and one consistency check per round."""
        return sum(r.attempted for r in self.untraced) + len(self.consistency)

    @property
    def failed(self) -> int:
        return (sum(r.failed for r in self.untraced)
                + sum(not c.passed for c in self.consistency))


def rate(results: List[TrialResult], scaled: bool = False) -> float:
    """Filter steps per second of trial time (reference seconds if ``scaled``)."""
    seconds = sum(r.seconds * (r.scale if scaled else 1.0) for r in results)
    return sum(r.steps for r in results) / seconds


def timed_rounds(setup: Setup, workload: Workload, seconds: float, capture: Capture,
                 calibrator=None, tracer=None) -> Rounds:
    """Whole rounds until ``seconds`` have passed.

    Every untraced trial runs under ``capture``, and each round ends with
    the pooled NEES check of its consistency trials. The first round keeps
    its trial records and the capture's samples; later rounds keep only
    timings, counts and final NEES, so memory does not grow with the number
    of rounds. A calibrator times its kernel between trials and
    scales each trial by its latest sample. With a tracer, every trial runs
    once untraced and then once traced, so that both timings sample the
    same stretch of machine time.
    """
    out = Rounds()
    started = time.perf_counter()
    while True:
        capture.sampling = out.count == 0
        nees = []
        for i, inp in enumerate(setup.inputs):
            if calibrator is not None:
                calibrator.maybe_sample()
            with capture.installed(setup.prog.harness):
                result = run_one(setup, workload, i, capture, keep_records=out.count == 0)
            if inp.consistency:
                nees.append(result.final_nees)
            if calibrator is not None:
                result.scale = calibrator.scale()
            out.untraced.append(result)
            if tracer is not None:
                with tracer.installed(setup.prog):
                    out.traced.append(run_one(setup, workload, i))
        out.consistency.append(
            checks.pooled_nees(nees, setup.prog.lidar_inertial.TANGENT_DIM))
        out.count += 1
        if time.perf_counter() - started >= seconds:
            return out
