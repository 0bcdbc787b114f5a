"""The benchmark's span tracer must find every name it wraps and undo it all.

``perfbench/tracing.py`` replaces functions of the already-imported package
by name; a renamed or deleted function breaks only a traced benchmark run,
so these tests install and restore the hooks on the modules the suite uses,
and run both traced models through one predict and update.
The package is not re-imported: other test modules hold its classes.
"""
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np

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


def _prog():
    # import_module hands back the modules the other tests already imported
    return SimpleNamespace(**{m: importlib.import_module("manikf." + m) for m in MODULES})


def test_trace_hooks_install_and_restore():
    tracing = _load_tracing()
    prog = _prog()
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


def test_traced_models_predict_and_update():
    tracing = _load_tracing()
    prog = _prog()
    li, qb, filt = prog.lidar_inertial, prog.baseline, prog.filter
    rng = np.random.default_rng(0)
    feats = []
    for k in range(6):
        p_f, u, q = rng.standard_normal(3), np.eye(3)[k % 3], rng.standard_normal(3)
        feats += [li.PlaneFeature(p_f, u, q)] if k < 4 else li.edge_features(p_f, u, q)
    rows = li.scan_rows(feats)
    z3, eye = np.zeros(3), np.eye(3)
    x = li.make_state(z3, z3, eye, z3, z3, [0.0, 0.0, -li.GRAVITY], eye, z3)
    u = np.array([0.0, 0.0, li.GRAVITY, 0.01, 0.0, 0.0])
    tracer = tracing.Tracer()
    with tracer.installed(prog):
        # the factories as the trial loop finds them, replaced by the tracer
        models = (
            (prog.harness.lidar_inertial_model(), x, 0, li.NOISE_DIM),
            (qb.baseline_model(augmented=True), qb.from_manifold(x), qb.N_CONSTRAINTS,
             qb.NOISE_DIM),
        )
        for model, x0, extra, noise_dim in models:
            state = filt.FilterState(x0, 0.01 * np.eye(model.manifold.dim))
            state = filt.predict(model, state, u, 0.01, 1e-4 * np.eye(noise_dim))
            r = np.diag(np.concatenate([
                np.full(len(rows.g), 0.02**2), np.full(extra, qb.CONSTRAINT_SIGMA**2)
            ]))
            state, _ = filt.update(model, state, np.zeros(len(r)), r, ctx=rows)
            np.linalg.cholesky(state.P)
    called = {tracer.names[i] for i in tracer.spans()[0]}
    for name in ("f", "df_dx", "df_dw", "h", "dh_dx"):
        assert "model." + name in called, name
    # no model sets dh_dv, but the tracer still replaces the field by name
    assert "model.dh_dv" in tracer.names


def test_traced_chart_jacobians_count_sphere_basis():
    # Sphere2 finds the basis as sphere.sphere_basis, where the tracer wraps
    # it; a by-name import into manifolds would drop it from the layer metrics
    tracing = _load_tracing()
    prog = _prog()
    li = prog.lidar_inertial
    z3, eye = np.zeros(3), np.eye(3)
    x = li.make_state(z3, z3, eye, z3, z3, [0.0, 0.0, -li.GRAVITY], eye, z3)
    man = li.state_manifold()
    tracer = tracing.Tracer()
    with tracer.installed(prog):
        man.diff_u(x, np.full(man.dim, 0.01))
        man.diff_v(x, np.full(man.control_dim, 0.01))
    for root in ("manifolds.diff_u", "manifolds.diff_v"):
        calls, _ = tracer.self_times(root)[0]["sphere.basis"]
        assert calls == 2, root
