"""In-memory span tracer wrapped around the library's public functions.

`Tracer.patch()` replaces each traced function with a wrapper in every
``nilkilling.*`` module namespace that binds it (``from .forms import wedge``
makes ``nilkilling.killing.wedge`` a second binding of the same function),
so calls between library modules are seen too.  `unpatch()` restores the
originals.  No library file is changed.

A span is (name, parent span, task id, start, end, cells, key), kept in flat
arrays and written out with `save()`.  `cells` is the size of the matrix a
span works on (SVD input for linalg, the brute operator for the oracle) and
`key` identifies the algebra a span analyses, so that repeated work on one
algebra within a task can be counted.  Every per-layer metric is derived
from these arrays by `layer_metrics`.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from math import comb

import numpy as np

# (module, attribute, span name); the span name is also the metric prefix
TRACED = [
    ("forms", "wedge", "forms.wedge"),
    ("forms", "contract", "forms.contract"),
    ("forms", "skew_extend", "forms.skew_extend"),
    ("forms", "lie_diff", "forms.lie_diff"),
    ("forms", "transform", "forms.transform"),
    ("forms", "nabla_form", "forms.nabla_form"),
    ("killing", "killing_nullspace_brute", "killing.brute"),
    ("killing", "solve_killing2", "killing.solve_killing2"),
    ("killing", "solve_killing3", "killing.solve_killing3"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "column_space", "linalg.column_space"),
    ("structure", "decompose", "structure.decompose"),
    ("structure", "killing_dimensions", "structure.killing_dimensions"),
    ("structure", "find_complex_structure", "structure.find_complex_structure"),
    ("structure", "naturally_reductive_type",
     "structure.naturally_reductive_type"),
    ("algebra", "validate", "algebra.validate"),
    ("algebra", "adapted_frame", "algebra.adapted_frame"),
    ("algebra", "nabla_matrix", "algebra.nabla_matrix"),
    ("algebra", "j_trace_form", "algebra.j_trace_form"),
    ("catalog", "build", "catalog.build"),
    ("catalog", "direct_sum", "catalog.direct_sum"),
    ("catalog", "heisenberg", "catalog.heisenberg"),
    ("catalog", "complex_heisenberg", "catalog.complex_heisenberg"),
    ("catalog", "free_two_step_3", "catalog.free_two_step_3"),
    ("catalog", "euclidean", "catalog.euclidean"),
    ("cli", "main", "cli.main"),
    ("cli", "analyze_record", "cli.analyze_record"),
    ("cli", "_space_mismatch", "cli.span_check"),
]

LAYERS = ["forms", "killing", "linalg", "structure", "algebra", "catalog",
          "cli"]

# functions reported one by one: calls per task and share of the layer's
# self time
PER_FUNCTION = [
    "forms.wedge", "forms.contract", "forms.skew_extend", "forms.lie_diff",
    "forms.transform",
    "killing.brute", "killing.solve_killing2", "killing.solve_killing3",
    "linalg.nullspace", "linalg.column_space",
    "structure.decompose", "structure.killing_dimensions",
    "structure.find_complex_structure", "structure.naturally_reductive_type",
    "algebra.validate", "algebra.adapted_frame", "algebra.nabla_matrix",
    "catalog.build", "cli.main",
]

TASK_SPAN = "bench.task"


def _matrix_cells(args, kwargs):
    a = args[0] if args else kwargs["a"]
    shape = np.shape(a)
    if len(shape) == 1:
        return shape[0], 0
    return shape[0] * shape[1], 0


def _brute_cells(args, kwargs):
    F = args[1] if len(args) > 1 else kwargs["F"]
    k = args[2] if len(args) > 2 else kwargs["k"]
    return F.n * comb(F.n, k) ** 2, 0


def _algebra_key(args, kwargs):
    L = args[0] if args else kwargs["L"]
    return 0, hash((L.structure_constants.tobytes(), L.gram.tobytes()))


ANNOTATE = {
    "linalg.nullspace": _matrix_cells,
    "linalg.column_space": _matrix_cells,
    "killing.brute": _brute_cells,
    "structure.decompose": _algebra_key,
    "algebra.adapted_frame": _algebra_key,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_a = array("i")
        self.parent_a = array("i")
        self.task_a = array("i")
        self.start_a = array("d")
        self.end_a = array("d")
        self.cells_a = array("q")
        self.key_a = array("q")
        self.errors = {}
        self.stack = [-1]
        self.task_id = -1
        self._patches = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid, cells=0, key=0):
        idx = len(self.start_a)
        self.name_a.append(nid)
        self.parent_a.append(self.stack[-1])
        self.task_a.append(self.task_id)
        self.cells_a.append(cells)
        self.key_a.append(key)
        self.end_a.append(0.0)
        self.stack.append(idx)
        self.start_a.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end_a[idx] = time.perf_counter()
        self.stack.pop()

    def run_task(self, task_id, fn):
        """Run one benchmark task under a root span."""
        self.task_id = task_id
        idx = self._open(self._name_id(TASK_SPAN))
        try:
            return fn()
        finally:
            self._close(idx)
            self.task_id = -1

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        annotate = ANNOTATE.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cells, key = annotate(args, kwargs) if annotate else (0, 0)
            idx = tracer._open(nid, cells, key)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tag = (name, type(exc).__name__)
                tracer.errors[tag] = tracer.errors.get(tag, 0) + 1
                raise
            finally:
                tracer._close(idx)

        return wrapper

    def patch(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "nilkilling" or name.startswith("nilkilling.")]
        for modname, attr, span in TRACED:
            orig = getattr(importlib.import_module("nilkilling." + modname), attr)
            wrapper = self._wrap(orig, span)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, orig))

    def unpatch(self):
        for mod, key, orig in reversed(self._patches):
            setattr(mod, key, orig)
        self._patches = []

    def arrays(self):
        return {
            "name": np.frombuffer(self.name_a, dtype=np.int32),
            "parent": np.frombuffer(self.parent_a, dtype=np.int32),
            "task": np.frombuffer(self.task_a, dtype=np.int32),
            "start": np.frombuffer(self.start_a, dtype=np.float64),
            "end": np.frombuffer(self.end_a, dtype=np.float64),
            "cells": np.frombuffer(self.cells_a, dtype=np.int64),
            "key": np.frombuffer(self.key_a, dtype=np.int64),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_metrics(names, spans, errors, untraced_s, traced_s):
    """Per-layer metrics from the span arrays of one traced batch.

    Counts and times are per task of the batch, which is a fixed number of
    whole passes.
    """
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    nonroot = parent >= 0
    child = np.bincount(parent[nonroot], weights=dur[nonroot],
                        minlength=len(dur))
    self_t = dur - child
    ids = {nm: i for i, nm in enumerate(names)}
    tasks = int(np.count_nonzero(name == ids[TASK_SPAN]))
    out = {}

    def mask(span):
        return name == ids[span] if span in ids else np.zeros(len(name), bool)

    layer_self = {}
    for layer in LAYERS:
        sel = np.zeros(len(name), bool)
        for span in names:
            if span.startswith(layer + "."):
                sel |= mask(span)
        layer_self[layer] = float(self_t[sel].sum())
        out[f"{layer}.self_s"] = (layer_self[layer] / tasks, "s/task")
    for span in PER_FUNCTION:
        m = mask(span)
        layer = span.split(".")[0]
        out[f"{span}.calls"] = (int(m.sum()) / tasks, "calls/task")
        total = layer_self[layer]
        out[f"{span}.self_frac"] = (
            float(self_t[m].sum()) / total if total else 0.0, "frac")

    cells = spans["cells"]
    out["killing.brute.op_cells"] = (
        float(cells[mask("killing.brute")].sum()) / tasks, "cells/task")
    svd = mask("linalg.nullspace") | mask("linalg.column_space")
    out["linalg.svd_cells"] = (float(cells[svd].sum()) / tasks, "cells/task")
    out["linalg.svd_max_cells"] = (int(cells[svd].max(initial=0)), "cells")
    out["linalg.rank_failures"] = (
        sum(count for (span, exc), count in errors.items()
            if span.startswith("linalg.") and exc == "NumericalRankFailure"),
        "count")

    # nullspace self time by nearest traced caller of interest
    callers = {ids.get("killing.brute"): "under_brute",
               ids.get("structure.decompose"): "under_decompose"}
    callers.pop(None, None)
    split = {"under_brute": 0.0, "under_decompose": 0.0}
    null_idx = np.flatnonzero(mask("linalg.nullspace"))
    for i in null_idx:
        p = parent[i]
        while p >= 0 and name[p] not in callers:
            p = parent[p]
        if p >= 0:
            split[callers[name[p]]] += self_t[i]
    null_self = float(self_t[null_idx].sum())
    for key, val in split.items():
        out[f"linalg.nullspace.{key}_frac"] = (
            val / null_self if null_self else 0.0, "frac")

    for span in ("structure.decompose", "algebra.adapted_frame"):
        m = mask(span)
        calls = int(m.sum())
        distinct = len(set(zip(spans["task"][m].tolist(),
                               spans["key"][m].tolist())))
        out[f"{span}.useful_frac"] = (distinct / calls if calls else 0.0,
                                      "frac")
    out["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")
    return out
