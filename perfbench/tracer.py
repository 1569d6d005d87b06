"""Span tracing of georev from outside the package.

``Tracer.install`` wraps every public function of every georev module, plus
the methods named in ``SPAN_METHODS`` and ``LEAF_METHODS``, at every module
attribute that refers to it: ``georev.cli`` and ``georev.spheroid`` bind
names with ``from .x import y``, so patching the defining module alone would
miss their calls.  ``uninstall`` restores the originals.

Each wrapped call records a span (name, start, end, parent, job id) in
memory.  Profile evaluations and dense-trace lookups run hundreds of
thousands of times per run, so they are counted and timed in aggregate as
*leaf* calls instead: their busy time is charged to the enclosing span, which
keeps self times right without storing one span per call.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np

# methods that get one span per call: (module, class, method)
SPAN_METHODS = (
    ("surfaces", "RevolutionSurface", "curvature_grids"),
    ("surfaces", "RevolutionSurface", "area_and_willmore"),
    ("surfaces", "RevolutionSurface", "diameter_of"),
)

# hot methods counted in aggregate: (module, class, method, leaf group)
_PROFILE_METHODS = ("h", "g", "dh", "dg", "d2h", "d2g", "speed", "dspeed")
LEAF_METHODS = tuple(
    ("surfaces", "ProfileCurve", name, "surfaces.profile") for name in _PROFILE_METHODS
) + (("geodesics", "GeodesicTrace", "eval", "geodesics.trace_eval"),)


def _is_array(x):
    return np.ndim(x) > 0


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.leaf_s = array("d")  # leaf time charged directly to the span
        self.outer = array("b")  # 1 when no ancestor span has the same name
        self.job_id = -1
        self._stack = []
        self._active = {}  # span name id -> open spans of that name
        self.leaf = {}  # group -> [scalar calls, array calls, busy s]
        self._in_leaf = set()
        self.observers = {}  # span name -> fn(result, counters)
        self.counters = {}
        self._patched = []  # (owner, attribute, original)

    # -- recording ------------------------------------------------------------

    def _open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.leaf_s.append(0.0)
        depth = self._active.get(nid, 0)
        self.outer.append(1 if depth == 0 else 0)
        self._active[nid] = depth + 1
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._active[self.name_id[i]] -= 1

    def span_wrapper(self, name, fn):
        tracer = self
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if observe is not None:
                observe(result, tracer.counters)
            return result

        return traced

    def leaf_wrapper(self, group, fn):
        tracer = self
        stats = self.leaf.setdefault(group, [0, 0, 0.0])
        in_leaf = self._in_leaf

        @functools.wraps(fn)
        def traced(obj, t, *args, **kwargs):
            # calls a leaf makes into its own group are not counted again
            if group in in_leaf:
                return fn(obj, t, *args, **kwargs)
            in_leaf.add(group)
            t0 = time.perf_counter()
            try:
                return fn(obj, t, *args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                in_leaf.discard(group)
                stats[1 if _is_array(t) else 0] += 1
                stats[2] += dt
                if tracer._stack:
                    tracer.leaf_s[tracer._stack[-1]] += dt

        return traced

    # -- patching -------------------------------------------------------------

    def install(self, package="georev"):
        pkg = importlib.import_module(package)
        modules = [
            importlib.import_module(f"{package}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        short = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
        wrapped = {}  # id(original) -> wrapper
        for mod in modules:
            tag = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self.span_wrapper(f"{tag}.{attr}", obj)
        # rebind every module attribute that refers to a wrapped function
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    self._patch(mod, attr, w)
        for tag, cls_name, meth in SPAN_METHODS:
            cls = getattr(short[tag], cls_name)
            self._patch(cls, meth, self.span_wrapper(
                f"{tag}.{cls_name}.{meth}", vars(cls)[meth]))
        for tag, cls_name, meth, group in LEAF_METHODS:
            cls = getattr(short[tag], cls_name)
            self._patch(cls, meth, self.leaf_wrapper(group, vars(cls)[meth]))

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- results ----------------------------------------------------------------

    def arrays(self):
        """Span table as numpy columns, with duration and self time in seconds."""
        n = len(self.start)
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        leaf = np.array(self.leaf_s, dtype=float)
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "job": np.array(self.job, dtype=np.int64),
            "outer": np.array(self.outer, dtype=bool),
            "dur": dur,
            "self": dur - child - leaf,
        }

    def span_stats(self):
        """name -> (calls, busy s, self s); busy time counts outermost spans only."""
        cols = self.arrays()
        out = {}
        for nid, name in enumerate(self.names):
            sel = cols["name_id"] == nid
            busy = float(np.sum(cols["dur"][sel & cols["outer"]]))
            out[name] = (int(np.sum(sel)), busy, float(np.sum(cols["self"][sel])))
        return out

    def write_spans(self, path):
        cols = self.arrays()
        t0 = float(cols["start"].min()) if len(cols["start"]) else 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "name", "start_us", "end_us", "parent", "job",
                        "self_us"])
            for i in range(len(cols["start"])):
                w.writerow([
                    i, self.names[cols["name_id"][i]],
                    round((cols["start"][i] - t0) * 1e6, 1),
                    round((cols["end"][i] - t0) * 1e6, 1),
                    int(cols["parent"][i]), int(cols["job"][i]),
                    round(cols["self"][i] * 1e6, 1),
                ])
