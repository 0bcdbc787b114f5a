"""The benchmark's span tracer must find every name it wraps and undo it all.

``perfbench/tracing.py`` replaces functions of the already-imported package
by name; a renamed or deleted function breaks only a traced benchmark run,
so this test installs and restores the hooks on the modules the suite uses.
The package is not re-imported: other test modules hold its classes.
"""
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (
    "so3", "sphere", "manifolds", "filter", "lidar_inertial", "baseline",
    "trajectory", "harness",
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_install_and_restore():
    tracing = _load_tracing()
    # import_module hands back the modules the other tests already imported
    prog = SimpleNamespace(**{m: importlib.import_module("manikf." + m) for m in MODULES})
    owners = [*vars(prog).values(), prog.manifolds.Compound]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, prog)
        assert prog.harness.run_trial is not before[MODULES.index("harness")]["run_trial"]
    finally:
        tracer.restore()
    for owner, saved in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == saved.keys(), owner
        assert all(now[k] is v for k, v in saved.items()), owner
