"""Span tracing of ``uavplace`` from outside the package.

Each public function is wrapped at the module attribute its callers look it
up through (``from .placement import solve_exact`` binds
``uavplace.algorithms.solve_exact``, so that is what gets patched; the
package-level re-export is never called by the package itself). A wrapper
records a span with a name, a start, an end, its parent span and the root
span (one ``cli.main`` call) it belongs to. A span's self time is its
duration minus the time covered by its child spans; all spans here nest on
one thread, so the children never overlap.

Hot scalar functions (``HOT``) would produce thousands of spans per trial.
They still sit on the span stack, so their callers' self time stays exact,
but their calls, total time and self time are aggregated per parent span
instead of being kept one span per call.

Tracing is only correct single-threaded: the benchmark traces with
``workers=1``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

#: ``(module, attribute)`` pairs patched while tracing, grouped by the module
#: whose code performs the lookup.
PATCHES = (
    ("cli", "main"),
    ("cli", "load_scenario"),
    ("cli", "run_trials"),
    ("sim", "generate_users"),
    ("sim", "run_algorithm"),
    ("sim", "altitude_bracket"),
    ("sim", "exhaustive_search"),
    ("sim", "mwa_place"),
    ("sim", "lq_place"),
    ("algorithms", "altitude_bracket"),
    ("algorithms", "mwa_altitude"),
    ("algorithms", "mean_covered_density"),
    ("algorithms", "squared_radius_slope"),
    ("algorithms", "optimal_pair"),
    ("algorithms", "coverage_radius"),
    ("algorithms", "coverage_radius_profile"),
    ("algorithms", "solve_exact"),
    ("algorithms", "evaluate_center"),
    ("radius", "optimal_pair"),
    ("radius", "optimal_elevation"),
    ("radius", "mean_path_loss"),
    ("radius", "los_probability"),
    ("placement", "evaluate_center"),
)

#: Span names aggregated per parent span instead of kept one span per call.
HOT = frozenset(
    {
        "algorithms.squared_radius_slope",
        "radius.coverage_radius",
        "channel.mean_path_loss",
        "channel.los_probability",
    }
)

LAYERS = ("cli", "sim", "algorithms", "radius", "channel", "placement")


def span_name(fn) -> str:
    """``<defining module>.<function>``, e.g. ``placement.solve_exact``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _capture_args(name, args):
    # Argument facts kept per span and evaluated after the run, so the
    # benchmark's own arithmetic never lands inside a timed span.
    if name == "placement.solve_exact":
        users, radius_map = args[0], args[1]
        return (users, dict(radius_map))
    if name == "radius.coverage_radius_profile":
        return int(np.size(args[0]))
    return None


class Tracer:
    """In-memory span recorder; patch the package with :meth:`installed`."""

    def __init__(self) -> None:
        # (id, root id, parent id, name, start, end, self time, captured args)
        self.spans: list[tuple] = []
        # (owning span id, name) -> [calls, total time, self time]
        self.hot: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        # open frames: [child time, owning span id, root id]
        self._stack: list[list] = []
        self._ids = itertools.count()

    def _wrap(self, name, fn):
        stack, clock = self._stack, time.perf_counter
        if name in HOT:
            hot = self.hot

            def hot_wrapper(*args, **kwargs):
                owner = stack[-1] if stack else [0.0, None, None]
                frame = [0.0, owner[1], owner[2]]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    owner[0] += dur
                    agg = hot[(owner[1], name)]
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[0]

            return hot_wrapper

        spans, ids = self.spans, self._ids

        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            root = parent[2] if parent else span_id
            frame = [0.0, span_id, root]
            captured = _capture_args(name, args)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if parent is not None:
                    parent[0] += t1 - t0
                spans.append(
                    (span_id, root, parent[1] if parent else None, name, t0, t1, t1 - t0 - frame[0], captured)
                )

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every entry of :data:`PATCHES`; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr in PATCHES:
                module = importlib.import_module(f"uavplace.{module_name}")
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(span_name(fn), fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive time and self time, summed.

        A name that never ran reads as zeros.
        """
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for _, _, _, name, t0, t1, self_s, _ in self.spans:
            t = out[name]
            t["calls"] += 1
            t["incl_s"] += t1 - t0
            t["self_s"] += self_s
        for (_, name), (calls, total, self_s) in self.hot.items():
            t = out[name]
            t["calls"] += calls
            t["incl_s"] += total
            t["self_s"] += self_s
        return out

    def captured(self, name: str) -> list:
        return [c for _, _, _, n, _, _, _, c in self.spans if n == name]

    def write(self, path) -> None:
        """Write one JSON array per line.

        ``["span", id, root, parent, name, start_s, end_s, self_s]`` per span,
        then ``["hot", owning span id, name, calls, total_s, self_s]`` per
        aggregate.
        """
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(["span", *span[:7]]) + "\n")
            for (owner, name), agg in self.hot.items():
                fh.write(json.dumps(["hot", owner, name, *agg]) + "\n")


def intersecting_pairs(users, radius_map) -> int:
    """Pairs with |r_i - r_j| <= d <= r_i + r_j and d > 0 (boundaries cross)."""
    n = len(users)
    if n < 2:
        return 0
    pts = np.array([(u.x_m, u.y_m) for u in users])
    r = np.array([radius_map[u.class_id] for u in users])
    i, j = np.triu_indices(n, k=1)
    d = np.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1])
    return int(np.count_nonzero((d > 0.0) & (d <= r[i] + r[j]) & (d >= np.abs(r[i] - r[j]))))
