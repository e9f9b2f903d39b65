"""Spans and counts at the boundaries of the orliczmax modules, recorded from outside.

Tracer.install rebinds, in every loaded orliczmax module, each attribute
that is one of the wrapped public functions, and wraps YoungFunction.eval
and SummedAreaTable.__init__ on their classes. Each call records a span
(layer, start, end, parent span, op) in flat arrays kept in memory, and
adds to exact counters. Self time is a span's duration minus that of its
child spans; it is computed when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter

import numpy as np

# module -> public function -> layer
FUNCTIONS = {
    "young": {"inverse": "young.inverse", "complementary": "young.complementary"},
    "grid": {"luxemburg_batch": "grid.luxemburg_batch",
             "luxemburg_norm": "grid.luxemburg_norm"},
    "maximal": {"strong_maximal": "maximal.strong", "multilinear_maximal": "maximal.strong",
                "orlicz_maximal": "maximal.orlicz",
                "multilinear_orlicz_maximal": "maximal.orlicz"},
    "weights": {name: "weights" for name in ("bump_constant", "power_bump_constant",
                                             "ap_constant", "sawyer_constant",
                                             "condition_A_estimate")},
    "bp": {"classify": "bp.classify"},
    "cli": {"main": "cli.main"},
}
# every public function of these modules belongs to the module's layer
WHOLE_MODULES = ("covering", "verify")
# (module, class, method) -> layer
METHODS = {("young", "YoungFunction", "eval"): "young.eval",
           ("grid", "SummedAreaTable", "__init__"): "grid.sat"}

# layers whose self time is reported, and the exact counts; both per op
TIMED_LAYERS = ("young.eval", "young.inverse", "young.complementary", "grid.sat",
                "grid.luxemburg_batch", "grid.luxemburg_norm", "maximal.strong",
                "maximal.orlicz", "weights", "bp.classify", "covering", "verify", "cli.main")
COUNTS = ("young.eval.calls", "young.eval.points", "young.inverse.calls",
          "young.inverse.points", "young.complementary.calls", "grid.sat.calls",
          "grid.sat.cells", "grid.luxemburg_batch.calls", "grid.luxemburg_batch.rows",
          "grid.luxemburg_batch.cells", "grid.luxemburg_norm.calls", "maximal.strong.calls",
          "maximal.orlicz.calls", "maximal.rects", "maximal.rects_solved", "weights.calls",
          "weights.members", "bp.classify.calls", "cli.main.calls", "cli.out_bytes")


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.layer = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.open_layers: Counter = Counter()
        self.current_op = -1
        self.active = True

    # ------------------------------------------------------------ recording

    def wrap(self, layer: str, fn):
        if layer not in self.layers:
            self.layers.append(layer)
        lid = self.layers.index(layer)
        before = _BEFORE.get(layer)
        after = _AFTER.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.start.append(0.0)
            self.end.append(0.0)
            self.layer.append(lid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.current_op)
            self.counts[layer + ".calls"] += 1
            if before is not None:
                before(self, args)
            self.stack.append(idx)
            self.open_layers[layer] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.open_layers[layer] -= 1
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(self, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap the layer functions; `modules` maps sys.modules names to modules."""
        pkg = {name.split(".")[-1]: mod for name, mod in modules.items()
               if name.startswith("orliczmax.")}
        layers = {}  # original function -> layer
        for modname, funcs in FUNCTIONS.items():
            if modname in pkg:  # the cli module is loaded only where it is run
                layers.update({getattr(pkg[modname], f): layer for f, layer in funcs.items()})
        for modname in WHOLE_MODULES:
            fns = (getattr(pkg[modname], f) for f in pkg[modname].__all__)
            layers.update({fn: modname for fn in fns if inspect.isfunction(fn)})
        wrappers = {fn: self.wrap(layer, fn) for fn, layer in layers.items()}
        for name, mod in modules.items():
            if name == "orliczmax" or name.startswith("orliczmax."):
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        setattr(mod, attr, wrappers[value])
        for (modname, cls, meth), layer in METHODS.items():
            klass = getattr(pkg[modname], cls)
            setattr(klass, meth, self.wrap(layer, getattr(klass, meth)))

    # ------------------------------------------------------------ results

    def self_times(self) -> dict[str, float]:
        """Total self time per layer: duration minus the durations of child spans."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        own = dur - child
        per_layer = np.bincount(np.frombuffer(self.layer, dtype=np.int32), weights=own,
                                minlength=len(self.layers))
        return {name: float(per_layer[i]) for i, name in enumerate(self.layers)}

    def save(self, path: str) -> None:
        np.savez(path, layers=np.array(self.layers), start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end), layer=np.frombuffer(self.layer, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32))

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        out = {}
        for name in COUNTS:
            out[name] = (self.counts[name] / ops, "count/op")
        rects = self.counts["maximal.rects"]
        out["maximal.solve_share"] = (
            self.counts["maximal.rects_solved"] / rects if rects else 0.0, "ratio")
        own = self.self_times()
        for layer in TIMED_LAYERS:
            out[layer + ".self_s"] = (own.get(layer, 0.0) / ops, "s/op")
        return out


# ---------------------------------------------------------------- counting hooks

def _count_eval(tr: Tracer, args) -> None:
    tr.counts["young.eval.points"] += int(np.size(args[1]))


def _count_inverse(tr: Tracer, args) -> None:
    tr.counts["young.inverse.points"] += int(np.size(args[1]))


def _count_sat(tr: Tracer, args) -> None:
    tr.counts["grid.sat.cells"] += int(args[1].values.size)


def _count_batch(tr: Tracer, args) -> None:
    rows, cells = np.shape(args[0])
    tr.counts["grid.luxemburg_batch.rows"] += rows
    tr.counts["grid.luxemburg_batch.cells"] += rows * cells
    if tr.open_layers["maximal.orlicz"]:
        tr.counts["maximal.rects_solved"] += rows


def _count_rects(tr: Tracer, result) -> None:
    # only the outermost maximal call: a dispatch to strong_maximal from
    # inside orlicz_maximal sweeps the same members
    if not (tr.open_layers["maximal.strong"] or tr.open_layers["maximal.orlicz"]):
        tr.counts["maximal.rects"] += int(result.provenance["rect_count"])


def _count_members(tr: Tracer, result) -> None:
    tr.counts["weights.members"] += int(result.samples_evaluated)


_BEFORE = {"young.eval": _count_eval, "young.inverse": _count_inverse,
           "grid.sat": _count_sat, "grid.luxemburg_batch": _count_batch}
_AFTER = {"maximal.strong": _count_rects, "maximal.orlicz": _count_rects,
          "weights": _count_members}

