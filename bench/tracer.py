"""Span tracer that times calls into crqiv's public functions from outside.

``Tracer.install()`` rebinds every traced function in each loaded ``crqiv``
module that holds a reference to it, and swaps those modules'
``ThreadPoolExecutor`` for a subclass that hands the submitting span to the
pool thread as its parent. Spans are kept in memory as
(id, name, start, end, parent, thread, thread-CPU, info) and summarised by
``layer_metrics`` once the run has ended. A traced function that no longer
exists is recorded as absent; the metrics that need it are left out.
"""

from __future__ import annotations

import importlib
import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# (module, function) of every traced public function; the layer is the
# module's short name, the span name is "<layer>.<function>"
TRACED = (
    ("crqiv.cli", "main"),
    ("crqiv.data", "load_csv"),
    ("crqiv.data", "save_csv"),
    ("crqiv.data", "resample"),
    ("crqiv.data", "swap_causes"),
    ("crqiv.survival", "build_counting_processes"),
    ("crqiv.survival", "aalen_johansen_cause1"),
    ("crqiv.smoothing", "smooth"),
    ("crqiv.surface", "assemble_surface"),
    ("crqiv.optim", "minimize_box_multistart"),
    ("crqiv.estimator", "fit_curve"),
    ("crqiv.estimator", "naive_curve"),
    ("crqiv.derived", "derived_quantities"),
    ("crqiv.bounds", "outer_set"),
    ("crqiv.bounds", "verify_membership"),
    ("crqiv.bounds", "capped_residual"),
    ("crqiv.inference", "bootstrap_band"),
    ("crqiv.inference", "coverage_study"),
    ("crqiv.simulate", "generate"),
    ("crqiv.simulate", "mc_study"),
)

LAYERS = (
    "data", "survival", "smoothing", "surface", "optim", "estimator",
    "derived", "bounds", "inference", "simulate", "cli",
)

# every per-layer metric: name -> (unit, spans it needs)
PER_LAYER = {
    "data.load_csv_s": ("s", ["data.load_csv"]),
    "data.resample_ms_p50": ("ms", ["data.resample"]),
    "survival.build_counting_processes_s": ("s", ["survival.build_counting_processes"]),
    "smoothing.smooth_s": ("s", ["smoothing.smooth"]),
    "smoothing.knots_per_curve_max": ("count", ["smoothing.smooth"]),
    "surface.assemble_surface_s": ("s", ["surface.assemble_surface"]),
    "surface.calls": ("count", ["surface.assemble_surface"]),
    "optim.solves": ("count", ["optim.minimize_box_multistart"]),
    "optim.solve_ms_p50": ("ms", ["optim.minimize_box_multistart"]),
    "optim.solve_ms_p90": ("ms", ["optim.minimize_box_multistart"]),
    "optim.objective_calls": ("count", ["optim.minimize_box_multistart"]),
    "optim.n_eval": ("count", ["optim.minimize_box_multistart"]),
    "optim.objective_calls_per_solve": ("count", ["optim.minimize_box_multistart"]),
    "optim.n_eval_per_solve": ("count", ["optim.minimize_box_multistart"]),
    "estimator.fit_curve_s": ("s", ["estimator.fit_curve"]),
    "estimator.grid_point_ms": ("ms", ["estimator.fit_curve", "surface.assemble_surface"]),
    "estimator.max_reported_objective": ("1", ["estimator.fit_curve"]),
    "estimator.naive_curve_s": ("s", ["estimator.naive_curve"]),
    "derived.derived_quantities_s": ("s", ["derived.derived_quantities"]),
    "bounds.outer_set_s": ("s", ["bounds.outer_set"]),
    "bounds.verify_membership_us_p50": ("us", ["bounds.verify_membership"]),
    "bounds.membership_calls": ("count", ["bounds.verify_membership"]),
    "bounds.capped_residual_calls": ("count", ["bounds.capped_residual"]),
    "inference.bootstrap_band_s": ("s", ["inference.bootstrap_band"]),
    "inference.replicate_ms_p50": ("ms", ["inference.bootstrap_band", "data.resample", "estimator.fit_curve"]),
    "inference.replicate_ms_p90": ("ms", ["inference.bootstrap_band", "data.resample", "estimator.fit_curve"]),
    "inference.failed_replicates": ("count", ["inference.bootstrap_band"]),
    "inference.effective_parallelism": ("1", ["inference.bootstrap_band", "data.resample", "estimator.fit_curve"]),
    "inference.coverage_study_s": ("s", ["inference.coverage_study"]),
    "simulate.generate_s": ("s", ["simulate.generate"]),
    "simulate.mc_study_s": ("s", ["simulate.mc_study"]),
    "cli.self_s": ("s", ["cli.main"]),
}
PER_LAYER.update({f"{layer}.self_s": ("s", []) for layer in LAYERS if layer != "cli"})


def _count_objective(args, kwargs):
    """Wrap the solver's objective to count the calls it really makes."""
    calls = [0]
    if args:
        f, args = args[0], args[1:]
    else:
        f = kwargs.pop("f")

    def counted(x):
        calls[0] += 1
        return f(x)

    def finish(res):
        return {"calls": calls[0], "n_eval": int(res.n_eval)}

    return (counted,) + tuple(args), kwargs, finish


def _fit_info(fit):
    obj = np.asarray(fit.objective, dtype=np.float64)
    rep = np.asarray(fit.reported_mask, dtype=bool)
    return {
        "solved": int(np.count_nonzero(np.isfinite(obj))),
        "max_obj": float(obj[rep].max()) if rep.any() else 0.0,
    }


# result readers: span name -> result -> info dict
_RESULT_INFO = {
    "smoothing.smooth": lambda curve: {"knots": int(curve.knots.size)},
    "estimator.fit_curve": _fit_info,
    "inference.bootstrap_band": lambda band: {"failed": int(band.n_failed)},
}
# argument rewriters: span name -> (args, kwargs) -> (args, kwargs, finish)
_ARG_HOOKS = {"optim.minimize_box_multistart": _count_objective}


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []

    def current(self):
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        return getattr(self._local, "inherited", None)

    def _wrap(self, name, fn):
        local, spans, ids = self._local, self.spans, self._ids
        arg_hook = _ARG_HOOKS.get(name)
        result_info = _RESULT_INFO.get(name)
        perf, thread_time, get_ident = time.perf_counter, time.thread_time, threading.get_ident

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else getattr(local, "inherited", None)
            sid = next(ids)
            finish = None
            if arg_hook is not None:
                args, kwargs, finish = arg_hook(args, kwargs)
            stack.append(sid)
            c0 = thread_time()
            t0 = perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                c1 = thread_time()
                stack.pop()
                info = None
                if result is not None:
                    try:
                        if finish is not None:
                            info = finish(result)
                        elif result_info is not None:
                            info = result_info(result)
                    except (AttributeError, TypeError, ValueError):
                        info = None  # a changed result type only loses the info
                spans.append((sid, name, t0, t1, parent, get_ident(), c1 - c0, info))

        return traced

    def _pool_class(self):
        current, local = self.current, self._local

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = current()

                def run(*a, **kw):
                    local.inherited, local.stack = parent, []
                    try:
                        return fn(*a, **kw)
                    finally:
                        local.inherited = None

                return super().submit(run, *args, **kwargs)

        return TracedPool

    def _rebind(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "crqiv" or mod_name.startswith("crqiv.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def install(self):
        importlib.import_module("crqiv.cli")
        for mod_name, fn_name in TRACED:
            name = f"{mod_name.rsplit('.', 1)[1]}.{fn_name}"
            try:
                fn = getattr(importlib.import_module(mod_name), fn_name)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self._rebind(fn, self._wrap(name, fn))
        self._rebind(ThreadPoolExecutor, self._pool_class())

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span id -> duration minus the part covered by its child spans.

    Children on pool threads count too, so a span that waits on its pool
    is not busy while the pool works for it.
    """
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    return {s[0]: (s[3] - s[2]) - _covered(s[2], s[3], children.get(s[0], ())) for s in spans}


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _replicates(spans):
    """(wall, thread-CPU) of each bootstrap replicate.

    A replicate is a resample followed by the fit of that resample on the
    same thread, both children of one bootstrap_band span.
    """
    bands = {s[0] for s in spans if s[1] == "inference.bootstrap_band"}
    by_key = defaultdict(list)
    for s in spans:
        if s[4] in bands and s[1] in ("data.resample", "estimator.fit_curve"):
            by_key[(s[4], s[5])].append(s)
    reps = []
    for group in by_key.values():
        group.sort(key=lambda s: s[2])
        for i, s in enumerate(group):
            if s[1] != "data.resample":
                continue
            nxt = group[i + 1] if i + 1 < len(group) else None
            if nxt is not None and nxt[1] == "estimator.fit_curve":
                reps.append((nxt[3] - s[2], s[6] + nxt[6]))
            else:  # the resample was degenerate and the replicate stopped there
                reps.append((s[3] - s[2], s[6]))
    return reps


def layer_metrics(spans, setup_spans=(), absent=()):
    """Per-layer metrics of one traced command: name -> value.

    ``setup_spans`` are the spans of the commands that made the inputs;
    only data generation is counted from them. Metrics that need an absent
    function are left out.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)

    def total(name):
        return sum((s[3] - s[2] for s in by_name[name]), 0.0)

    self_t = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer_self[s[1].split(".", 1)[0]] += self_t[s[0]]

    solves = by_name["optim.minimize_box_multistart"]
    solve_info = [s[7] for s in solves if s[7]]
    n_solves = len(solves)
    obj_calls = sum(i["calls"] for i in solve_info)
    n_eval = sum(i["n_eval"] for i in solve_info)

    # fit time minus its surface child, per grid point solved
    surface_in_fit = defaultdict(float)
    fit_ids = {s[0] for s in by_name["estimator.fit_curve"]}
    for s in by_name["surface.assemble_surface"]:
        if s[4] in fit_ids:
            surface_in_fit[s[4]] += s[3] - s[2]
    fits = by_name["estimator.fit_curve"]
    fit_net = sum((s[3] - s[2]) - surface_in_fit[s[0]] for s in fits)
    points_solved = sum(s[7]["solved"] for s in fits if s[7])
    # fits outside any bootstrap: the command's own estimates
    band_ids = {s[0] for s in by_name["inference.bootstrap_band"]}
    primary = [s[7]["max_obj"] for s in fits if s[7] and s[4] not in band_ids]

    reps = _replicates(spans)
    band_wall = total("inference.bootstrap_band")
    setup_generate = sum(s[3] - s[2] for s in setup_spans if s[1] == "simulate.generate")

    values = {
        "data.load_csv_s": total("data.load_csv"),
        "data.resample_ms_p50": _pct([(s[3] - s[2]) * 1e3 for s in by_name["data.resample"]], 50),
        "survival.build_counting_processes_s": total("survival.build_counting_processes"),
        "smoothing.smooth_s": total("smoothing.smooth"),
        "smoothing.knots_per_curve_max": max(
            (s[7]["knots"] for s in by_name["smoothing.smooth"] if s[7]), default=0
        ),
        "surface.assemble_surface_s": total("surface.assemble_surface"),
        "surface.calls": len(by_name["surface.assemble_surface"]),
        "optim.solves": n_solves,
        "optim.solve_ms_p50": _pct([(s[3] - s[2]) * 1e3 for s in solves], 50),
        "optim.solve_ms_p90": _pct([(s[3] - s[2]) * 1e3 for s in solves], 90),
        "optim.objective_calls": obj_calls,
        "optim.n_eval": n_eval,
        "optim.objective_calls_per_solve": obj_calls / n_solves if n_solves else 0.0,
        "optim.n_eval_per_solve": n_eval / n_solves if n_solves else 0.0,
        "estimator.fit_curve_s": total("estimator.fit_curve"),
        "estimator.grid_point_ms": fit_net / points_solved * 1e3 if points_solved else 0.0,
        "estimator.max_reported_objective": max(primary, default=0.0),
        "estimator.naive_curve_s": total("estimator.naive_curve"),
        "derived.derived_quantities_s": total("derived.derived_quantities"),
        "bounds.outer_set_s": total("bounds.outer_set"),
        "bounds.verify_membership_us_p50": _pct(
            [(s[3] - s[2]) * 1e6 for s in by_name["bounds.verify_membership"]], 50
        ),
        "bounds.membership_calls": len(by_name["bounds.verify_membership"]),
        "bounds.capped_residual_calls": len(by_name["bounds.capped_residual"]),
        "inference.bootstrap_band_s": band_wall,
        "inference.replicate_ms_p50": _pct([r[0] * 1e3 for r in reps], 50),
        "inference.replicate_ms_p90": _pct([r[0] * 1e3 for r in reps], 90),
        "inference.failed_replicates": sum(
            s[7]["failed"] for s in by_name["inference.bootstrap_band"] if s[7]
        ),
        "inference.effective_parallelism": sum(r[1] for r in reps) / band_wall if band_wall else 0.0,
        "inference.coverage_study_s": total("inference.coverage_study"),
        "simulate.generate_s": total("simulate.generate") + setup_generate,
        "simulate.mc_study_s": total("simulate.mc_study"),
        "cli.self_s": layer_self["cli"],
    }
    values.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS if layer != "cli"})
    missing = set(absent)
    gone_layers = {
        layer for layer in LAYERS
        if all(f"{m.rsplit('.', 1)[1]}.{f}" in missing for m, f in TRACED if m == f"crqiv.{layer}")
    }
    return {
        k: v for k, v in values.items()
        if not missing.intersection(PER_LAYER[k][1])
        and k.split(".", 1)[0] not in gone_layers
        and math.isfinite(v)
    }
