"""Spans around liefourier's layer boundaries, recorded from outside the library.

``Tracer.install`` wraps each boundary function and rebinds the wrapper in
every loaded ``liefourier`` module namespace that holds the original (the
modules bind names with ``from .x import y``, so patching only the defining
module would miss calls made through those bindings).  ``Tracer.restore``
puts the originals back.  A boundary that the library no longer has is
listed in ``Tracer.absent`` and its metrics read zero.

A span is ``(id, name, start, end, parent id, task)``.  Spans are kept in
memory; ``metrics`` turns them into additive per-layer counters: calls, self
time (duration minus the time covered by child spans) and a per-layer work
count, so that counters from several processes can simply be summed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import defaultdict

import numpy as np


def _samples(tracer, args, result):
    return {"samples": len(args["gridfn"].values)}


def _grid_samples(tracer, args, result):
    return {"samples": len(args["grid"])}


def _plan_builds(tracer, args, result):
    # the first time a plan object is handed out, this call built it
    try:
        if result in tracer.seen_plans:
            return {"builds": 0}
        tracer.seen_plans.add(result)
    except TypeError:  # a plan type without weak references: count nothing
        return {"builds": 0}
    return {"builds": 1}


def _levels(tracer, args, result):
    return {"levels": len(result[0])}


def _points(tracer, args, result):
    return {"points": len(np.atleast_2d(np.asarray(args["points"])))}


def _members(tracer, args, result):
    return {"members": len(args["cutoffs"]) * int(args["ensemble"].count)}


def _grid_bytes(tracer, args, result):
    arrays = [result.points, result.weights, *result.axes]
    if result.beta_weights is not None:
        arrays.append(result.beta_weights)
    return {"bytes": sum(int(a.nbytes) for a in arrays)}


# (layer metric, module, function, work counter or None).  Counters take the
# tracer, the bound arguments and the result, and return additive counts.
BOUNDARIES = (
    ("cli.run_config", "liefourier.cli", "run_config", None),
    ("dual.enumerate_dual", "liefourier.dual", "enumerate_dual", None),
    ("groups.build_grid", "liefourier.groups", "build_grid", _grid_bytes),
    ("symbols.cached_grid", "liefourier.symbols", "cached_grid", None),
    ("transform.plan", "liefourier.transform", "_get_plan", _plan_builds),
    ("transform.forward_transform", "liefourier.transform", "forward_transform", _samples),
    ("transform.inverse_on_grid", "liefourier.transform", "inverse_on_grid", _grid_samples),
    ("transform.inverse_evaluate", "liefourier.transform", "inverse_evaluate", _points),
    ("spaces.window_samples", "liefourier.spaces", "window_samples", _levels),
    ("spaces.aggregate", "liefourier.spaces", "tl_aggregate", None),
    ("spaces.aggregate", "liefourier.spaces", "lebesgue_norm", None),
    ("spaces.aggregate", "liefourier.spaces", "weak_tl_norm", None),
    ("spaces.aggregate", "liefourier.spaces", "triebel_lizorkin_norm", None),
    ("symbols.check_marcinkiewicz", "liefourier.symbols", "check_marcinkiewicz", None),
    ("symbols.check_weak_marcinkiewicz", "liefourier.symbols", "check_weak_marcinkiewicz", None),
    ("symbols.check_hormander_mihlin", "liefourier.symbols", "check_hormander_mihlin", None),
    ("symbols.dual_sobolev_norm", "liefourier.symbols", "dual_sobolev_norm", None),
    ("multipliers.kernel_difference_integral", "liefourier.multipliers", "kernel_difference_integral", None),
    ("multipliers.boundedness_sweep", "liefourier.multipliers", "boundedness_sweep", _members),
    ("multipliers.apply_multiplier", "liefourier.multipliers", "apply_multiplier", None),
)


class Tracer:
    """Records spans at the boundaries of one process's liefourier calls."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.task = None
        self.seen_plans = weakref.WeakSet()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- patching ---------------------------------------------------------

    def install(self):
        """Wrap every boundary in every loaded liefourier namespace."""
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "liefourier" and m]
        for metric, module_name, func_name, counter in self.boundaries:
            home = sys.modules.get(module_name)
            original = getattr(home, func_name, None) if home is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(metric, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))
        return self

    def restore(self):
        """Put every original back, in reverse order of patching."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, metric, original, counter):
        signature = inspect.signature(original)
        is_cache = metric == "symbols.cached_grid"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)  # reserve the id so children sort after
            self._stack.append(span_id)
            builds_before = self.counts["groups.build_grid.calls"]
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = (span_id, metric, start, end, parent, self.task)
            self.counts[f"{metric}.calls"] += 1
            if is_cache and self.counts["groups.build_grid.calls"] == builds_before:
                self.counts[f"{metric}.hits"] += 1  # served without a grid build
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(self, bound.arguments, result).items():
                    self.counts[f"{metric}.{key}"] += value
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        spans = [s for s in self.spans if s is not None]
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        return [(end - start) - child_time[sid] for sid, _, start, end, _, _ in spans]

    def metrics(self) -> dict[str, float]:
        """Additive counters: ``<layer>.calls``, ``.self_s`` and work counts."""
        out = dict(self.counts)
        spans = [s for s in self.spans if s is not None]
        for span, self_s in zip(spans, self.self_times()):
            key = f"{span[1]}.self_s"
            out[key] = out.get(key, 0.0) + self_s
        return out
