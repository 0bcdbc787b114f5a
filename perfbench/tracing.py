"""Span tracing of manikf's public functions, wrapped from outside the package.

A :class:`Tracer` replaces each traced function, at every name its callers
look it up by, with a wrapper that records one span: name, start, end and
the span it was called from. Spans stay in memory (flat arrays) until
:meth:`Tracer.write`. Self time is a span's duration minus the durations of
its direct children.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import types
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

TRIAL_SPAN = "harness.run_trial"
GENERATE_SPAN = "trajectory.generate"


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.span_id = array("q")
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._ids = itertools.count()
        self._stack = [-1]
        self._undo: list = []

    def wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        ids, stack = self._ids, self._stack
        rec_id, rec_name, rec_parent = self.span_id.append, self.name_id.append, self.parent.append
        rec_start, rec_end = self.start.append, self.end.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                rec_id(sid)
                rec_name(nid)
                rec_parent(parent)
                rec_start(t0)
                rec_end(t1)

        return traced

    @contextlib.contextmanager
    def installed(self, prog):
        """Trace every layer of ``prog`` (see :func:`install`) for the block."""
        install(self, prog)
        try:
            yield self
        finally:
            self.restore()

    def set(self, owner, attr: str, value) -> None:
        """setattr that :meth:`restore` undoes."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def clear(self) -> None:
        for arr in (self.span_id, self.name_id, self.parent, self.start, self.end):
            del arr[:]

    def spans(self):
        """Spans ordered by id (call order): name ids, parent ids, start, end."""
        order = np.argsort(np.frombuffer(self.span_id, dtype=np.int64), kind="stable")
        ids = np.frombuffer(self.span_id, dtype=np.int64)[order]
        base = ids[0] if ids.size else 0
        parent = np.frombuffer(self.parent, dtype=np.int64)[order]
        parent = np.where(parent < base, -1, parent - base)  # opened before clear()
        return (
            np.frombuffer(self.name_id, dtype=np.int32)[order],
            parent,
            np.frombuffer(self.start, dtype=np.int64)[order],
            np.frombuffer(self.end, dtype=np.int64)[order],
        )

    def self_times(self, root_name: str):
        """Per span name: (calls, self ns) over spans under roots named
        ``root_name``; and the summed duration of those roots, in ns."""
        name, parent, start, end = self.spans()
        dur = end - start
        has_parent = parent >= 0
        child = np.zeros(dur.size, dtype=np.int64)
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        root = np.where(has_parent, parent, np.arange(dur.size))
        while True:  # pointer jumping: every span ends at its outermost ancestor
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        inside = name[root] == self._name_ids[root_name]
        out = {}
        for nid, label in enumerate(self.names):
            sel = inside & (name == nid)
            out[label] = (int(sel.sum()), int(own[sel].sum()))
        root_ns = int(dur[inside & ~has_parent].sum())
        return out, root_ns

    def write(self, path: Path) -> None:
        """Write the spans as an .npz archive next to a JSON list of names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        name, parent, start, end = self.spans()
        np.savez(path, name=name, parent=parent, start_ns=start, end_ns=end)
        path.with_suffix(".names.json").write_text(json.dumps(self.names) + "\n")


def _module_copy(module, **overrides):
    """A stand-in module object: the module's namespace with some names replaced."""
    copy = types.ModuleType(module.__name__)
    copy.__dict__.update(vars(module))
    copy.__dict__.update(overrides)
    return copy


def _wrap_model_factory(tracer: Tracer, factory):
    """Factory wrapper whose SystemModel has every callable traced."""
    fields = ("f", "df_dx", "df_dw", "h", "dh_dx", "dh_dv")

    @functools.wraps(factory)
    def build(*args, **kwargs):
        model = factory(*args, **kwargs)
        return dataclasses.replace(
            model, **{f: tracer.wrap("model." + f, getattr(model, f)) for f in fields}
        )

    return build


def install(tracer: Tracer, prog) -> None:
    """Trace the public functions of every layer, where their callers find them."""
    so3, sphere, man, filt = prog.so3, prog.sphere, prog.manifolds, prog.filter
    harness, traj, base, li = prog.harness, prog.trajectory, prog.baseline, prog.lidar_inertial

    def everywhere(name, fn_name, owners):
        wrapped = tracer.wrap(name, getattr(owners[0], fn_name))
        for owner in owners:
            tracer.set(owner, fn_name, wrapped)

    everywhere("so3.exp", "so3_exp", (so3, sphere, traj))
    everywhere("so3.log", "so3_log", (so3, harness))
    everywhere("so3.mat_a", "mat_a", (so3, sphere))
    everywhere("sphere.basis", "sphere_basis", (sphere, li))
    for fn_name in ("sphere_boxplus", "sphere_boxminus", "sphere_oplus", "sphere_m"):
        everywhere("sphere.ops", fn_name, (sphere,))
    for method in ("boxplus", "boxminus", "oplus", "diff_u", "diff_v"):
        everywhere("manifolds." + method, method, (man.Compound,))
    tracer.set(harness, "lidar_inertial_model",
               _wrap_model_factory(tracer, harness.lidar_inertial_model))
    tracer.set(base, "baseline_model", _wrap_model_factory(tracer, base.baseline_model))
    everywhere("baseline.normalize", "normalize_state", (base,))
    everywhere("filter.predict", "predict", (filt, harness))
    everywhere("filter.update", "update", (filt, harness))
    linalg = filt.scipy.linalg
    tracer.set(filt, "scipy", _module_copy(filt.scipy, linalg=_module_copy(
        linalg,
        cho_factor=tracer.wrap("filter.gain_solve", linalg.cho_factor),
        cho_solve=tracer.wrap("filter.gain_solve", linalg.cho_solve),
    )))
    tracer.set(filt, "np", _module_copy(filt.np, linalg=_module_copy(
        filt.np.linalg, cond=tracer.wrap("filter.cond", filt.np.linalg.cond),
    )))
    everywhere(TRIAL_SPAN, "run_trial", (harness,))
    everywhere(GENERATE_SPAN, "generate_trajectory", (traj,))
