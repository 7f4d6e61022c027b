"""Spans around the package's layers, recorded from outside the package.

``installed(tracer)`` wraps every public function of each diffeoflow
module, at every module that imports it by name, and the ``values`` and
``jacobians`` methods of every field family class. It also wraps
``numpy.linalg.cond`` and ``numpy.linalg.solve``, which only the implicit
covector transport calls, as the conditioning guard and the covector solve.
Everything is restored on exit.

A span has a name, a start, an end, its parent span and the id of the
command it belongs to. Spans stay in memory until ``write_spans``. A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import diffeoflow

# The package re-exports the function train_pmp under the module's name, so
# the modules are looked up by their full names.
LAYERS = {
    layer: importlib.import_module(f"diffeoflow.{layer}")
    for layer in ("fields", "flow", "objective", "train_gd", "train_pmp", "metrics", "data", "cli")
}
NUMPY_SPANS = {"cond": "flow.cond_guard", "solve": "flow.covector_solve"}
TRAINERS = {"train_gd.train_gradient_flow": "train_gd", "train_pmp.train_pmp": "train_pmp"}
FIELD_METHODS = ("values", "jacobians")
SPAN_QUANTITIES = ("calls", "s", "self_s", "bytes")

# Span record fields, kept as a list so the wrapper can fill in the end.
NAME, START, END, PARENT, RUN, ATTRS = range(6)


class Tracer:
    """Collects spans; ``run_id`` tags the spans of the current command."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = 0
        self.names: set[str] = set()

    def wrap(self, name: str, fn, namer=None, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [namer(args, kwargs) if namer else name, clock(), 0.0,
                   stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if on_result is not None:
                rec[ATTRS] = on_result(result)
            return result

        return traced


def _covector_scheme(args, kwargs) -> str:
    scheme = kwargs.get("scheme", args[4] if len(args) > 4 else "implicit")
    return f"flow.backward_covector.{scheme}"


def _pass_counts(report) -> tuple[int, int]:
    records = report.records[1:]
    return len(records), sum(1 for r in records if r.accepted)


def _nbytes(result) -> int:
    return result.nbytes


@contextmanager
def installed(tracer: Tracer):
    """Wrap the package's layers for the duration of the block."""
    patches = []

    def patch(owner, attr, wrapper):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    try:
        wrappers = {}
        for layer, module in LAYERS.items():
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name == "flow.backward_covector":
                    tracer.names.update(f"{name}.{s}" for s in ("implicit", "explicit"))
                    wrappers[fn] = tracer.wrap(name, fn, namer=_covector_scheme)
                else:
                    tracer.names.add(name)
                    wrappers[fn] = tracer.wrap(name, fn, on_result=_pass_counts if name in TRAINERS else None)
        for module in (diffeoflow, *LAYERS.values()):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patch(module, attr, wrappers[obj])
        fields = LAYERS["fields"]
        for cls in vars(fields).values():
            if inspect.isclass(cls) and issubclass(cls, fields.VectorFieldFamily):
                for attr in FIELD_METHODS:
                    if attr in vars(cls) and not getattr(vars(cls)[attr], "__isabstractmethod__", False):
                        patch(cls, attr, tracer.wrap(f"fields.{attr}", vars(cls)[attr], on_result=_nbytes))
        tracer.names.update(f"fields.{attr}" for attr in FIELD_METHODS)
        for attr, name in NUMPY_SPANS.items():
            tracer.names.add(name)
            patch(np.linalg, attr, tracer.wrap(name, getattr(np.linalg, attr)))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def command_metrics(spans: list[list], first: int, known: set[str]) -> dict[str, float]:
    """Per-layer values of the command whose spans start at index ``first``.

    Values are named ``<span or trainer>.<quantity>``.
    Every span gives calls, inclusive seconds ``s``, ``self_s`` and the
    ``bytes`` of the arrays it returned; a known span that never ran reads 0.
    Each trainer gives its passes, accepted fraction and backtracks, and
    ``train_gd.forward_per_pass`` counts forward sweeps per gradient pass.
    """
    index = {i: spans[i] for i in range(first, len(spans))}
    covered = dict.fromkeys(index, 0.0)
    for s in index.values():
        if s[PARENT] in covered:
            covered[s[PARENT]] += s[END] - s[START]
    totals: dict[str, dict[str, float]] = {}
    for i, s in index.items():
        t = totals.setdefault(s[NAME], dict.fromkeys(SPAN_QUANTITIES, 0.0))
        duration = s[END] - s[START]
        t["calls"] += 1
        t["s"] += duration
        t["self_s"] += duration - covered[i]
        if isinstance(s[ATTRS], int):
            t["bytes"] += s[ATTRS]
    for name, layer in TRAINERS.items():
        passes = accepted = 0
        for s in index.values():
            if s[NAME] == name and s[ATTRS] is not None:
                passes += s[ATTRS][0]
                accepted += s[ATTRS][1]
        totals[layer] = {
            "passes": passes,
            "accepted_fraction": accepted / passes if passes else 0.0,
            "backtracks": passes - accepted,
        }
    trainer_spans = {i for i, s in index.items() if s[NAME] == "train_gd.train_gradient_flow"}
    forwards = sum(
        1 for s in index.values() if s[NAME] == "flow.forward_euler" and _has_ancestor(spans, s, trainer_spans)
    )
    gd_passes = totals["train_gd"]["passes"]
    totals["train_gd"]["forward_per_pass"] = forwards / gd_passes if gd_passes else 0.0
    flat = {f"{n}.{q}": 0.0 for n in known for q in SPAN_QUANTITIES}
    for n, values in totals.items():
        flat.update((f"{n}.{q}", float(v)) for q, v in values.items())
    return flat


def _has_ancestor(spans: list[list], span: list, ancestors: set[int]) -> bool:
    parent = span[PARENT]
    while parent >= 0:
        if parent in ancestors:
            return True
        parent = spans[parent][PARENT]
    return False


def median_metrics(per_command: list[dict[str, float]]) -> dict[str, float]:
    """Median over commands of each per-command value."""
    return {k: statistics.median(d[k] for d in per_command) for k in per_command[0]}


def write_spans(path: Path, spans: list[list]) -> None:
    """Write all spans, one per row, times in seconds on the process clock."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["span", "parent", "run", "name", "start", "end"])
        for i, s in enumerate(spans):
            writer.writerow([i, s[PARENT], s[RUN], s[NAME], repr(s[START]), repr(s[END])])

