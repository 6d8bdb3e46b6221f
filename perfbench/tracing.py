"""Span tracing of the quatem layers, installed from outside the package.

The traced run replaces every public function of each quatem module with a
wrapper that records a span: name, start, end, parent span and operation
id.  A function imported elsewhere with ``from .x import y`` is a second
binding of the same object, so the wrapper replaces the object under every
name that refers to it in every quatem module (``upsilon`` lives in
``kernels`` but is called through ``operators`` and ``cli``).  Field
factories are wrapped so that the ``value``/``d_value`` callables of the
fields they return become ``fields.eval`` spans.

Spans stay in memory; ``per_layer`` turns them into the per-layer metrics
and ``dump`` writes them out when the run ends.  Counts named in
``COMPUTED`` are derived from argument or result shapes, not measured.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import inspect
import json
import math
import os
import statistics
import time
import tracemalloc

import numpy as np

MODULES = ("quaternions", "kernels", "operators", "fields", "geometry",
           "maxwell", "reconstruction", "cli")

# Private cli helpers that are layers of their own (file formats).
CLI_HELPERS = ("_load_traces", "_save_traces", "_write_json")

# Functions whose spans also measure the peak of traced (numpy) allocations.
MEMORY_SPANS = ("operators.cauchy_boundary_many",)

COUNT = "count"
COMPUTED = "count-computed"
BYTES = "B-computed"

# (metric, unit) of every per-layer metric, in report order.  Each value is
# the mean over the run's traced operations of the per-operation value.
PER_LAYER = [
    ("quaternions.qmul.calls", COUNT),
    ("quaternions.qmul.self_s", "s"),
    ("quaternions.qmul.elements", COMPUTED),
    ("quaternions.qmul.bytes", BYTES),
    ("kernels.upsilon.calls", COUNT),
    ("kernels.upsilon.self_s", "s"),
    ("kernels.upsilon.points", COMPUTED),
    ("kernels.theta.self_s", "s"),
    ("kernels.theta.points", COMPUTED),
    ("operators.cauchy_boundary_many.calls", COUNT),
    ("operators.cauchy_boundary_many.self_s", "s"),
    ("operators.cauchy_boundary_many.pairs", COMPUTED),
    ("operators.cauchy_boundary_many.chunks", COMPUTED),
    ("operators.cauchy_boundary_many.peak_temp_bytes", "B"),
    ("operators.cauchy_boundary.calls", COUNT),
    ("operators.cauchy_boundary.self_s", "s"),
    ("operators.cauchy_boundary.pairs", COMPUTED),
    ("operators.teodorescu.calls", COUNT),
    ("operators.teodorescu.self_s", "s"),
    ("operators.teodorescu.far_nodes", COMPUTED),
    ("operators.teodorescu.near_samples", COMPUTED),
    ("operators.borel_pompeiu_residual.self_s", "s"),
    ("operators.boundary.useful_ratio", "ratio"),
    ("operators.errors", COUNT),
    ("fields.eval.calls", COUNT),
    ("fields.eval.self_s", "s"),
    ("fields.eval.points", COMPUTED),
    ("geometry.interior_offset_points.calls", COUNT),
    ("geometry.interior_offset_points.self_s", "s"),
    ("geometry.interior_offset_points.pairs", COMPUTED),
    ("geometry.interior_offset_points.warn_count", COUNT),
    ("geometry.build_sphere_mesh.self_s", "s"),
    ("geometry.build_sphere_mesh.triangles", COMPUTED),
    ("geometry.checked_normals.self_s", "s"),
    ("geometry.save_off.self_s", "s"),
    ("geometry.save_off.bytes", "B"),
    ("geometry.load_off.self_s", "s"),
    ("geometry.load_off.bytes", "B"),
    ("geometry.build_ball_quadrature.self_s", "s"),
    ("geometry.build_ball_quadrature.nodes", COMPUTED),
    ("maxwell.split_values.calls", COUNT),
    ("maxwell.split_values.self_s", "s"),
    ("reconstruction.extendibility_residual.calls", COUNT),
    ("reconstruction.extendibility_residual.self_s", "s"),
    ("reconstruction.reconstruct_eh.calls", COUNT),
    ("reconstruction.reconstruct_eh.self_s", "s"),
    ("reconstruction.perturb_traces.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli._load_traces.self_s", "s"),
    ("cli._load_traces.rows", COMPUTED),
    ("cli._save_traces.self_s", "s"),
    ("cli._save_traces.rows", COMPUTED),
    ("cli._write_json.self_s", "s"),
    ("cli._write_json.bytes", "B"),
] + [("%s.self_s" % m, "s") for m in MODULES] + [
    ("tracing_overhead_s", "s"),
]


def _digest(a) -> str:
    return hashlib.sha1(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


def _points(x) -> int:
    return int(np.prod(np.shape(x)[:-1]))


def _size(path) -> int:
    return os.path.getsize(path)


# Per-call counts: span name -> f(bound arguments, result) -> {stat: value}.
COUNTERS = {
    "quaternions.qmul": lambda a, r: {
        "elements": r.size // 4,
        "bytes": 16 * (np.size(a["a"]) + np.size(a["b"]) + r.size),
    },
    "kernels.upsilon": lambda a, r: {"points": r.size // 4},
    "kernels.theta": lambda a, r: {"points": int(np.size(r))},
    "operators.cauchy_boundary_many": lambda a, r: {
        "pairs": len(a["xs"]) * len(a["density"].mesh.flat_points),
        "chunks": math.ceil(len(a["xs"]) / a["chunk"]),
        "target": _digest(a["xs"]),
    },
    "operators.cauchy_boundary": lambda a, r: {
        "pairs": len(a["density"].mesh.flat_points),
        "target": _digest(a["x"]),
    },
    "operators.teodorescu": lambda a, r: {
        "far_nodes": len(a["density"].quadrature.points),
    },
    "operators.VolumeDensity.sample": lambda a, r: {"points": _points(a["pts"])},
    "geometry.interior_offset_points": lambda a, r: {
        "pairs": a["mesh"].n_triangles * len(a["mesh"].flat_points),
        "warn_count": int(np.count_nonzero(r[1])),
    },
    "geometry.build_sphere_mesh": lambda a, r: {"triangles": r.n_triangles},
    "geometry.save_off": lambda a, r: {"bytes": _size(a["path"])},
    "geometry.load_off": lambda a, r: {"bytes": _size(a["path"])},
    "geometry.build_ball_quadrature": lambda a, r: {"nodes": len(r.points)},
    "cli._load_traces": lambda a, r: {"rows": a["n_triangles"]},
    "cli._save_traces": lambda a, r: {"rows": len(a["e"])},
    "cli._write_json": lambda a, r: {"bytes": _size(a["path"])},
}

EVAL = "fields.eval"


@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    counts: dict | None = None


class Tracer:
    """Records spans while ``install`` has patched the package."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = -1
        errors = package.errors
        self._rejections = (errors.NearSingularityError, errors.SingularityError)

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._op, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)
        memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            own_malloc = memory and not tracemalloc.is_tracing()
            if own_malloc:
                tracemalloc.start()
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except self._rejections as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    span.counts = {"rejections": 1}
                raise
            finally:
                self._close(span)
                if own_malloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            counts = {}
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts.update(counter(bound.arguments, result))
            if own_malloc:
                counts["peak_temp_bytes"] = peak
            span.counts = counts or None
            return result

        return traced

    def _wrap_eval(self, fn):
        if hasattr(fn, "__perfbench_original__"):
            return fn

        @functools.wraps(fn)
        def traced(x):
            # A field evaluated inside another field's evaluation is part of it.
            if self._stack and self._stack[-1].name == EVAL:
                return fn(x)
            span = self._open(EVAL)
            try:
                return fn(x)
            finally:
                self._close(span)
                span.counts = {"points": _points(x)}

        traced.__perfbench_original__ = fn
        return traced

    def _wrap_factory(self, fn):
        field_type = self.package.fields.AnalyticField

        def wrap_field(obj):
            if isinstance(obj, field_type):
                return dataclasses.replace(obj, value=self._wrap_eval(obj.value),
                                           d_value=self._wrap_eval(obj.d_value))
            if isinstance(obj, tuple):
                return tuple(wrap_field(v) for v in obj)
            return obj

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            return wrap_field(fn(*args, **kwargs))

        return factory

    # -- patching ----------------------------------------------------------

    def _replacements(self):
        """(original, wrapper) for every traced function of the package."""
        pkg = self.package
        for modname in MODULES:
            module = getattr(pkg, modname)
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and not (modname == "cli" and attr in CLI_HELPERS):
                    continue
                if modname == "fields":
                    yield obj, self._wrap_factory(obj)
                else:
                    yield obj, self._wrap("%s.%s" % (modname, attr), obj)

    @contextlib.contextmanager
    def install(self, op: int):
        """Patch the package so that operation `op` records spans."""
        self._op = op
        pkg = self.package
        namespaces = [getattr(pkg, m) for m in MODULES] + [pkg]
        undo = []
        for original, wrapper in list(self._replacements()):
            for ns in namespaces:
                for attr, obj in list(vars(ns).items()):
                    if obj is original:
                        undo.append((ns, attr, original))
                        setattr(ns, attr, wrapper)
        density = pkg.operators.VolumeDensity
        undo.append((density, "sample", density.sample))
        density.sample = self._wrap("operators.VolumeDensity.sample", density.sample)
        try:
            yield self
        finally:
            for ns, attr, original in reversed(undo):
                setattr(ns, attr, original)
            self._stack.clear()

    # -- results -----------------------------------------------------------

    def per_layer(self, ops) -> dict:
        """Mean over the given operation ids of each per-layer metric; an
        operation that did not call a function contributes 0."""
        by_op = {op: [] for op in ops}
        for span in self.spans:
            if span.op in by_op:
                by_op[span.op].append(span)
        per_op = [_op_metrics(spans) for spans in by_op.values()]
        return {name: statistics.fmean(m.get(name, 0) for m in per_op)
                for name, _ in PER_LAYER if name != "tracing_overhead_s"}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.op, s.name, s.start, s.end,
                                     s.counts]) + "\n")


def _op_metrics(spans) -> dict:
    """Per-layer metrics of one operation from its spans."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    targets = []
    for s in spans:
        self_s = (s.end - s.start) - child_time.get(s.id, 0.0)
        add("%s.self_s" % s.name.split(".")[0], self_s)
        counts = dict(s.counts or {})
        name = s.name
        if name == "operators.VolumeDensity.sample":
            # density.sample is the near-field sampler of teodorescu
            add("operators.teodorescu.near_samples", counts.get("points", 0))
        add(name + ".calls", 1)
        add(name + ".self_s", self_s)
        if "target" in counts:
            targets.append(counts.pop("target"))
        if "rejections" in counts:
            add("operators.errors", counts.pop("rejections"))
        if "peak_temp_bytes" in counts:
            key = name + ".peak_temp_bytes"
            out[key] = max(out.get(key, 0), counts.pop("peak_temp_bytes"))
        for stat, value in counts.items():
            add("%s.%s" % (name, stat), value)
    out["operators.boundary.useful_ratio"] = (
        len(set(targets)) / len(targets) if targets else 0.0)
    out.setdefault("operators.errors", 0)
    return out
