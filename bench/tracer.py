"""Span tracer installed around imcvf's public functions from outside.

The library imports names directly (``from .expr import evaluate``), so a
wrapper has to replace every reference held by an ``imcvf.*`` namespace;
methods are replaced on their class.  Each call records one span: name,
start, end, parent span, job id, thread, and whether an exception left it.
The ``hawking`` command runs in a thread pool, so every thread keeps its
own span stack; a span opened on a worker thread with an empty stack is
parented to the span the main thread is inside (the waiting ``cli.main``).
Spans stay in memory until ``save``.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# layer -> public names wrapped; "Class.method" names are patched on the class
TARGETS = {
    "expr": ("evaluate", "diff", "parse", "to_source"),
    "chart": ("load_chart", "save_chart", "inverse_values", "BlockMetric.deriv"),
    "curvature": ("christoffel_values", "curvature_values"),
    "grid": ("SphereGrid.__init__", "SphereGrid.d_theta", "SphereGrid.d2_theta",
             "SphereGrid.d_phi", "SphereGrid.div_tangent", "SphereGrid.laplacian_round",
             "SphereGrid.solve_poisson_round"),
    "sphere": ("surface_fields", "mean_curvature_values", "hawking_mass"),
    "builder": ("solve_d", "complete_chart_file", "validate_chart",
                "monotonicity_check_spherical"),
    "steering": ("frame_data", "steering_parameter"),
    "straightout": ("solve_straight_out_d",),
    "asymptotics": ("adm_mass",),
    "cli": ("main",),
}

def _env_points(args, kwargs, _result):
    """Broadcast size of the env handed to evaluate (its second argument)."""
    env = args[1] if len(args) > 1 else kwargs["env"]
    return int(np.prod(np.broadcast_shapes(*(np.shape(v) for v in env.values()))))


def _result_bytes(_args, _kwargs, result):
    return int(np.asarray(result).nbytes)


# span name -> work count recorded with the span
MEASURES = {"expr.evaluate": _env_points, "curvature.christoffel_values": _result_bytes}


class Tracer:
    """Collects spans while installed; ``job`` tags the spans of one job."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []   # (id, name_idx, start, end, parent, job, thread, error, work)
        self.job = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list = []
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main else []
            self._local.stack = stack
        return stack

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        measure = MEASURES.get(name)
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(ids)
            stack.append(sid)
            error, result = False, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                error = True
                raise
            finally:
                end = clock()
                stack.pop()
                work = measure(args, kwargs, result) if measure and not error else 0
                spans.append((sid, idx, start, end, parent, self.job,
                              threading.get_ident(), error, work))

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded imcvf namespace."""
        modules = {n: m for n, m in list(sys.modules.items())
                   if m is not None and (n == "imcvf" or n.startswith("imcvf."))}
        for layer, names in TARGETS.items():
            home = modules[f"imcvf.{layer}"]
            for qual in names:
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._undo.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(f"{layer}.{qual}", original))
                    continue
                original = getattr(home, qual)
                wrapper = self._wrap(f"{layer}.{qual}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def save(self, path: str) -> None:
        """Write the spans as columns of an .npz file (times in seconds)."""
        cols = list(zip(*self.spans)) if self.spans else [()] * 9
        np.savez_compressed(
            path, names=np.array(self.names),
            id=np.array(cols[0], dtype=np.int64), name=np.array(cols[1], dtype=np.int32),
            start=np.array(cols[2]), end=np.array(cols[3]),
            parent=np.array([-1 if p is None else p for p in cols[4]], dtype=np.int64),
            job=np.array(cols[5], dtype=np.int64), thread=np.array(cols[6], dtype=np.int64),
            error=np.array(cols[7], dtype=bool), work=np.array(cols[8], dtype=np.int64))


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def summarize(tracer: Tracer, count_jobs: int, max_workers: int) -> dict:
    """Per-span-name totals: calls, self_s, errors and work.

    Self time is a span's duration minus the union of its children's
    intervals, so pool workers overlapping each other are not subtracted
    twice.  Calls, errors and work are taken over jobs < count_jobs only,
    which makes them exact counts for a given seed; self times cover every
    traced job.  Also returns the pool busy ratio: time of spans a worker
    thread ran for a ``cli.main`` divided by that call's wall time times
    its pool size, min(max_workers, tasks handed to the pool).
    """
    children = defaultdict(list)
    for sid, _n, s, e, parent, *_ in tracer.spans:
        if parent is not None:
            children[parent].append((s, e))
    stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "errors": 0, "work": 0})
    by_id = {}
    for span in tracer.spans:
        sid, n, s, e, _parent, job, _thread, error, work = span
        by_id[sid] = span
        st = stats[tracer.names[n]]
        st["self_s"] += (e - s) - _covered(children.get(sid, ()))
        if job < count_jobs:
            st["calls"] += 1
            st["errors"] += int(error)
            st["work"] += work
    main_idx = tracer.names.index("cli.main") if "cli.main" in tracer.names else -1
    pool_busy, pool_tasks = defaultdict(float), defaultdict(int)
    for _sid, _n, s, e, parent, _job, thread, *_ in tracer.spans:
        owner = by_id.get(parent)
        if owner is not None and thread != owner[6] and owner[1] == main_idx:
            pool_busy[parent] += e - s
            pool_tasks[parent] += 1
    capacity = sum((by_id[p][3] - by_id[p][2]) * min(max_workers, k)
                   for p, k in pool_tasks.items())
    return {"spans": dict(stats),
            "pool_busy_ratio": sum(pool_busy.values()) / capacity if capacity else 0.0}
