"""In-memory span tracer that wraps dmcam's public callables from outside.

Each traced callable is replaced by a wrapper: module-level functions in
every dmcam module that bound the name (``dmcam.compiler.derive_encoding``
as well as ``dmcam.encoder.derive_encoding``), methods on their class. A
wrapper records one span per call: name, start, end, parent span, operation
id and thread. Spans stay in memory and are written out once, at the end of
the run.

A layer's self time is its span's duration minus the time its child spans
in the same thread cover. Each thread keeps its own span stack; a span
opened by a pool thread with an empty stack takes the main thread's open
span (``monte_carlo``) as its parent, and the time such spans cover is
reported as ``busy_share`` of the pool instead of being subtracted.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _devices(args, kwargs, result, seconds):
    cb = args[0]
    return {"devices": cb.rows * cb.dims * cb.k}


@dataclass(frozen=True)
class Target:
    layer: str  # metric prefix, "<module>.<callable>"
    module: str  # module that defines the callable
    attr: str  # "function" or "Class.method"
    primary: tuple[str, ...]  # workloads on which it must record calls
    stats: tuple[str, ...] = ("calls", "self_s")
    # (args, kwargs, result, seconds) -> {counter: amount}, summed per layer
    count: Optional[Callable] = None


TARGETS = (
    Target("solver.decompose_dm", "dmcam.solver", "decompose_dm", ("compile",),
           ("calls", "self_s", "tuples"), lambda a, kw, r, s: {"tuples": len(r)}),
    Target("solver.backtrack_row", "dmcam.solver", "backtrack_row", ("compile",),
           ("calls", "self_s", "assignments"), lambda a, kw, r, s: {"assignments": len(r)}),
    Target("solver.ac3", "dmcam.solver", "ac3", ("compile",),
           ("calls", "self_s", "domain_in", "domain_out", "kept_ratio"),
           lambda a, kw, r, s: {
               "domain_in": sum(len(d) for d in _arg(a, kw, 0, "searchlines")),
               "domain_out": sum(r.domain_sizes),
           }),
    Target("solver.extract_solution", "dmcam.solver", "extract_solution", ("compile",)),
    Target("solver.solve_fixed_k", "dmcam.solver", "solve_fixed_k", ("compile",),
           ("calls", "self_s", "solved"), lambda a, kw, r, s: {"solved": int(r.feasible)}),
    Target("solver.brute_force_feasible", "dmcam.solver", "brute_force_feasible", ("compile",)),
    Target("encoder.derive_encoding", "dmcam.encoder", "derive_encoding", ("compile",)),
    Target("encoder.verify_encoding", "dmcam.encoder", "verify_encoding", ("compile",),
           ("calls", "self_s", "entries"), lambda a, kw, r, s: {"entries": r.checked}),
    Target("compiler.compile_dm", "dmcam.compiler", "compile_dm", ("compile",),
           ("calls", "self_s", "probes"), lambda a, kw, r, s: {"probes": len(r.probes)}),
    Target("metric.build_dm", "dmcam.metric", "build_dm", ("compile",)),
    Target("crossbar.row_currents", "dmcam.crossbar", "Crossbar.row_currents", ("knn",),
           ("calls", "self_s", "cells", "cells_per_s"),
           lambda a, kw, r, s: {"cells": a[0].rows * a[0].dims}),
    Target("crossbar.search", "dmcam.crossbar", "Crossbar.search", ("knn",)),
    Target("crossbar.knn", "dmcam.crossbar", "Crossbar.knn", ("knn",)),
    Target("crossbar.build", "dmcam.crossbar", "Crossbar.__init__", ("mc",),
           ("calls", "self_s", "devices"), _devices),
    Target("crossbar.resample_variation", "dmcam.crossbar", "Crossbar.resample_variation",
           ("mc",), ("calls", "self_s", "devices"), _devices),
    Target("crossbar.monte_carlo", "dmcam.crossbar", "monte_carlo", ("mc",),
           ("self_s", "busy_share"),
           lambda a, kw, r, s: {"capacity_s": _arg(a, kw, 8, "workers", 1) * s}),
    Target("apps.software_distances", "dmcam.apps", "software_distances", ("knn",)),
    Target("apps.software_knn_order", "dmcam.apps", "software_knn_order", ("knn",)),
    # knn_classify ranks with software_knn_order; the mc expected winners are
    # the only pipeline caller of software_nearest.
    Target("apps.software_nearest", "dmcam.apps", "software_nearest", ("mc",)),
    Target("apps.Quantizer.fit", "dmcam.apps", "Quantizer.fit", ("knn", "hdc"),
           ("calls", "self_s", "values"),
           lambda a, kw, r, s: {"values": int(np.size(_arg(a, kw, 1, "train")))}),
    Target("apps.Quantizer.apply", "dmcam.apps", "Quantizer.apply", ("knn", "hdc"),
           ("calls", "self_s", "values"),
           lambda a, kw, r, s: {"values": int(np.size(_arg(a, kw, 1, "values")))}),
    Target("apps.HDCModel.encode", "dmcam.apps", "HDCModel.encode", ("hdc",)),
    Target("apps.hdc_train", "dmcam.apps", "hdc_train", ("hdc",), ("self_s",)),
    Target("apps.hdc_evaluate", "dmcam.apps", "hdc_evaluate", ("hdc",), ("self_s",)),
    Target("apps.knn_classify", "dmcam.apps", "knn_classify", ("knn",), ("self_s",)),
    Target("datasets.synthetic_digits", "dmcam.datasets", "synthetic_digits",
           ("knn", "hdc", "mc"), ("self_s",)),
)

OVERHEAD_METRIC = "trace.overhead_share"

_UNITS = {
    "self_s": "s",
    "kept_ratio": "ratio",
    "cells_per_s": "1/s",
    "busy_share": "share",
}


# Less time and less work for the same result is better; these two are rates.
_HIGHER_IS_BETTER = ("cells_per_s", "busy_share")


def metric_names() -> list[dict]:
    """Every per-layer metric a traced run prints, as BENCHMARK.json lists it."""
    names = [
        {"name": f"{t.layer}.{stat}", "unit": _UNITS.get(stat, "count"),
         "better": "higher" if stat in _HIGHER_IS_BETTER else "lower"}
        for t in TARGETS for stat in t.stats
    ]
    return names + [{"name": OVERHEAD_METRIC, "unit": "share", "better": "lower"}]


class _Span:
    __slots__ = ("id", "target", "parent", "op", "thread", "start", "end", "child")

    def __init__(self, span_id, target, parent, op, thread):
        self.id = span_id
        self.target = target
        self.parent = parent
        self.op = op
        self.thread = thread
        self.start = self.end = 0.0
        self.child = 0.0  # time covered by child spans of the same thread


class Tracer:
    """Patches TARGETS while installed; records spans while enabled."""

    def __init__(self):
        self.targets = TARGETS
        self.enabled = False
        self.op = 0  # operation id stamped on new spans
        self.spans: list[_Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counters: list[dict] = []
        self._main_stack: list[_Span] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("dmcam")
        self._main_stack = self._state()[0]
        for index, target in enumerate(self.targets):
            module = importlib.import_module(target.module)
            owner_name, _, name = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[name]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(index, raw.__func__))
                else:
                    wrapped = self._wrap(index, raw)
                self._patch(owner, name, raw, wrapped)
                continue
            original = getattr(module, name)
            wrapped = self._wrap(index, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "dmcam" and not mod_name.startswith("dmcam."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _patch(self, owner, name, original, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._undo.append((owner, name, original))

    def _state(self) -> tuple[list[_Span], dict]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            self._thread_counters.append(state[1])
        return state

    def _wrap(self, index: int, fn):
        target = self.targets[index]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack, counters = tracer._state()
            parent = stack[-1] if stack else None
            if parent is None and stack is not tracer._main_stack:
                try:
                    parent = tracer._main_stack[-1]
                except IndexError:
                    parent = None
            span = _Span(next(tracer._ids), index, parent, tracer.op, threading.get_ident())
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child += span.end - span.start
                tracer.spans.append(span)
            if target.count is not None:
                for key, amount in target.count(args, kwargs, result, span.end - span.start).items():
                    counters[(index, key)] = counters.get((index, key), 0) + amount
            return result

        return traced

    # -- results ------------------------------------------------------------

    def layer_metrics(self, overhead_share: float) -> dict[str, tuple[float, str]]:
        calls = [0] * len(self.targets)
        self_s = [0.0] * len(self.targets)
        pooled = [0.0] * len(self.targets)  # pool-thread time under this layer's spans
        for span in self.spans:
            calls[span.target] += 1
            self_s[span.target] += span.end - span.start - span.child
            parent = span.parent
            if parent is not None and parent.thread != span.thread:
                pooled[parent.target] += span.end - span.start
        counters: dict = {}
        for thread_counters in self._thread_counters:
            for key, amount in thread_counters.items():
                counters[key] = counters.get(key, 0) + amount

        def ratio(num, den):
            return num / den if den else 0.0

        out: dict[str, tuple[float, str]] = {}
        for index, target in enumerate(self.targets):
            for stat in target.stats:
                if stat == "calls":
                    value = calls[index]
                elif stat == "self_s":
                    value = self_s[index]
                elif stat == "kept_ratio":
                    value = ratio(counters.get((index, "domain_out"), 0),
                                  counters.get((index, "domain_in"), 0))
                elif stat == "cells_per_s":
                    value = ratio(counters.get((index, "cells"), 0), self_s[index])
                elif stat == "busy_share":
                    value = ratio(pooled[index], counters.get((index, "capacity_s"), 0.0))
                else:
                    value = counters.get((index, stat), 0)
                out[f"{target.layer}.{stat}"] = (value, _UNITS.get(stat, "count"))
        out[OVERHEAD_METRIC] = (overhead_share, "share")
        return out

    def silent_layers(self, workload: str) -> list[str]:
        """Layers that recorded no call on a workload they are primary for."""
        seen = {span.target for span in self.spans}
        return [t.layer for i, t in enumerate(self.targets) if workload in t.primary and i not in seen]

    def write(self, path: Path) -> None:
        """One JSON list per span: id, name, start, end, parent id, op id, thread."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for span in self.spans:
                parent = span.parent.id if span.parent is not None else None
                row = [span.id, self.targets[span.target].layer, span.start, span.end,
                       parent, span.op, span.thread]
                f.write(json.dumps(row) + "\n")
