"""Spans around the public functions of each actionlab module.

The traced run replaces every function named in a layer module's
``__all__``, at every module binding in the package, with a wrapper that
records a span ``[name, start, end, parent, run_id]``.  The scenario runners
in ``cli._RUNNERS`` are wrapped under the single name ``cli.runner``.  Spans
stay in memory; :func:`layer_metrics` turns them into per-layer self time,
call and error counts, and the counters the hooks below record at the same
boundaries.  The tracer keeps one span stack, so it serves single-threaded
runs only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYER_MODULES = ("paths", "shifts", "lagrangians", "transform", "diagnostics",
                 "bridge", "catalog", "reporting")
RUNNER = "cli.runner"

NAME, START, END, PARENT = range(4)   # then run_id


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.holders = []        # bridge drift holders, read after simulation
        self.run_id = None
        self._stack = []

    def wrap(self, name, fn, hook=None):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.run_id]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counters[f"{name}.errors"] += 1
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, result, args)
            return result

        return traced


def _steps(ens) -> int:
    return ens.states.shape[0] * (ens.states.shape[1] - 1)


def computed_bytes(arr) -> int:
    """Bytes of memory an array spans; a broadcast view counts its base once."""
    lo, hi = np.lib.array_utils.byte_bounds(arr)
    return hi - lo


def _simulate(tr, ens, args):
    tr.counters["paths.simulate.path_steps"] += _steps(ens)
    tr.counters["paths.simulate.bytes_out"] += sum(
        computed_bytes(a) for a in (ens.states, ens.drifts, ens.diffusions))


def _fbsde(tr, result, args):
    tr.counters["bridge.fbsde_simulate.path_steps"] += _steps(result.ensemble)


def _el_process(tr, out, args):
    tr.counters["lagrangians.el_process.path_steps"] += _steps(args[0])


def _push_shift(tr, ens, args):
    tr.counters["transform.push_shift.bytes_out"] += (
        computed_bytes(ens.states) + computed_bytes(ens.drifts))


def _sinkhorn(tr, solution, args):
    tr.counters["bridge.sinkhorn_bridge.iterations"] += solution.iterations


def _bridge_to_model(tr, result, args):
    tr.holders.append(result[1])


def _martingale_test(tr, report, args):
    tr.counters["diagnostics.martingale_test.statistics"] += report.statistics.size


def _shift_built(tr, result, args):
    h = getattr(result, "h", None)
    if isinstance(h, np.ndarray):
        tr.counters["shifts.h_bytes_built"] += h.nbytes


COUNTERS = ("paths.simulate.path_steps", "paths.simulate.bytes_out",
            "bridge.fbsde_simulate.path_steps",
            "lagrangians.el_process.path_steps",
            "transform.push_shift.bytes_out",
            "bridge.sinkhorn_bridge.iterations",
            "diagnostics.martingale_test.statistics", "shifts.h_bytes_built")

HOOKS = {
    "paths.simulate": _simulate,
    "bridge.fbsde_simulate": _fbsde,
    "lagrangians.el_process": _el_process,
    "transform.push_shift": _push_shift,
    "bridge.sinkhorn_bridge": _sinkhorn,
    "bridge.bridge_to_model": _bridge_to_model,
    "diagnostics.martingale_test": _martingale_test,
}


def install(tracer: Tracer, package: str = "actionlab"):
    """Wrap every public layer function at each of its module bindings.

    Returns ``(names, uninstall)``: the wrapped span names and a function that
    restores every original binding.
    """
    cli = importlib.import_module(f"{package}.cli")
    wrappers, names = {}, {RUNNER}
    for short in LAYER_MODULES:
        mod = importlib.import_module(f"{package}.{short}")
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn not in wrappers:
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                hook = HOOKS.get(name, _shift_built if short == "shifts" else None)
                wrappers[fn] = tracer.wrap(name, fn, hook)
                names.add(name)
    patched = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or modname.split(".")[0] != package:
            continue
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrappers:
                patched.append((mod, attr, val))
                setattr(mod, attr, wrappers[val])
    runners = cli._RUNNERS
    saved = dict(runners)
    for kind, fn in saved.items():
        runners[kind] = tracer.wrap(RUNNER, fn)

    def uninstall():
        for mod, attr, val in patched:
            setattr(mod, attr, val)
        runners.update(saved)

    return sorted(names), uninstall


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its direct children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append(span)
    out = []
    for span, kids in zip(spans, children):
        lo, hi = span[START], span[END]
        covered = _covered([(max(k[START], lo), min(k[END], hi))
                            for k in kids if k[END] > lo and k[START] < hi])
        out.append(hi - lo - covered)
    return out


def _has_ancestor(spans, index, name) -> bool:
    parent = spans[index][PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(tracer: Tracer, names) -> dict:
    """Per-layer table: ``<name>.{self_s, total_s, calls, errors}`` for every
    wrapped name (zero when never called), the hooks' counters and the
    derived per-step times and ratios."""
    spans = tracer.spans
    out = {}
    for name in names:
        out.update({f"{name}.self_s": 0.0, f"{name}.total_s": 0.0,
                    f"{name}.calls": 0, f"{name}.errors": 0})
    for span, own in zip(spans, self_times(spans)):
        name = span[NAME]
        out[f"{name}.self_s"] += own
        out[f"{name}.total_s"] += span[END] - span[START]
        out[f"{name}.calls"] += 1
    out.update(dict.fromkeys(COUNTERS, 0))
    out.update(tracer.counters)
    out["bridge.bridge_to_model.clamped"] = sum(h.clamped for h in tracer.holders)
    for name in ("paths.simulate", "bridge.fbsde_simulate",
                 "lagrangians.el_process"):
        steps = out[f"{name}.path_steps"]
        out[f"{name}.ns_per_path_step"] = (
            out.get(f"{name}.self_s", 0.0) / steps * 1e9 if steps else 0.0)
    # Each variational_derivative call differences one +-epsilon pair of
    # pushed ensembles; the others it builds are discarded.
    built = sum(1 for i, s in enumerate(spans)
                if s[NAME] == "transform.push_shift"
                and _has_ancestor(spans, i, "diagnostics.variational_derivative"))
    used = 2 * out.get("diagnostics.variational_derivative.calls", 0)
    out["diagnostics.variational_derivative.fd_used_ratio"] = (
        used / built if built else 0.0)
    out["trace.errors"] = sum(out[f"{name}.errors"] for name in names)
    out["trace.spans"] = len(spans)
    return out
