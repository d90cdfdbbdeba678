"""Span tracer installed from outside the package, and per-layer metrics.

install() wraps every function named in the __all__ of each rmtlab
module, plus KernelHandle.evaluate and DescentContext.__init__, and
replaces every copy another module bound by name at import (kernels
binds specfun.airy, rh binds it too).  Each call records a span
(name, start, end, parent, job, ok, info) in memory; info holds counters
computed from the call's arguments and return value only.

layer_metrics() turns a list of spans into the per-layer metrics.  A
span's exclusive time is its duration minus that of its child spans; a
layer's self_s is the sum of the exclusive times of its spans, so the
self_s of all layers add up to the time covered by root spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("specfun", "kernels", "equilibrium", "orthopoly", "rh", "mc", "cli")
METHODS = {"kernels": [("KernelHandle", "evaluate")],
           "rh": [("DescentContext", "__init__")]}
# span names of the methods (rh.DescentContext.s is the lens fit)
_METHOD_NAMES = {("DescentContext", "__init__"): "DescentContext"}


def _potential_key(pot):
    return (tuple(pot.coefficients), pot.hard_edge, pot.singularity_alpha)


def _info_solve(bound, result):
    info = {"potential": repr(_potential_key(bound["V"]))}
    if result is not None:
        info["iterations"] = result.iterations
    return info


def _info_table(bound, result):
    w = bound["w"]
    info = {"weight": repr((_potential_key(w.potential), w.N, w.truncation,
                            bound["n_max"]))}
    if result is not None:
        info["nodes_used"] = result.nodes_used
    return info


def _info_gaussian(bound, result):
    if result is None:
        return {}
    m = 2 * result.n if result.beta == 4 else result.n
    return {"spectra": result.count, "dense_eig_ops": result.count * m ** 3}


# counters computed from arguments and return values
_INFO = {
    "specfun.airy_real": lambda b, r: {"points": len(r[0]) if r is not None else 0},
    "equilibrium.solve_equilibrium": _info_solve,
    "orthopoly.recurrence_table": _info_table,
    "orthopoly.cd_kernel_grid": lambda b, r: {"entries": r.size if r is not None else 0},
    "mc.sample_gaussian": _info_gaussian,
    "mc.sample_invariant": lambda b, r: {"spectra": r.count} if r is not None else {},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = -1
        self._stack = []
        self._restore = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        annotate = _INFO.get(name)
        signature = inspect.signature(fn) if annotate else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result, ok = None, False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                info = None
                if annotate:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    info = annotate(bound.arguments, result if ok else None)
                spans[idx] = (name, start, end, parent, self.job, ok, info)

        return traced

    def install(self):
        mods = {m: importlib.import_module(f"rmtlab.{m}") for m in MODULES}
        originals = {}
        for layer, mod in mods.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj):
                    originals[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                label = _METHOD_NAMES.get((cls_name, meth), f"{cls_name}.{meth}")
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self.wrap(f"{layer}.{label}", fn))
        # the defining module and every module that imported the name
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, originals[id(obj)][1])
        return self

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()


# ---------------------------------------------------------------------------
# per-layer metrics

PER_FUNCTION = {
    "specfun": {"airy": ("calls", "self_s"), "airy_tail": ("calls",),
                "bessel_j": ("calls", "self_s")},
    "kernels": {"KernelHandle.evaluate": ("calls",), "airy_kernel": ("calls", "s"),
                "matrix_kernel_edge": ("calls", "s"),
                "pearcey_kernel": ("calls", "s", "fail"),
                "bessel_hard_kernel": ("s",), "bessel_origin_kernel": ("s",),
                "pfaffian": ("calls", "s"), "correlation_pfaffian": ("s",),
                "correlation_det": ("s",)},
    "equilibrium": {"solve_equilibrium": ("calls", "s"),
                    "grid_energy_minimize": ("calls", "s")},
    "orthopoly": {"recurrence_table": ("calls", "s", "fail"),
                  "cd_kernel_grid": ("calls", "s"), "rescaled_kernel": ("s",)},
    "rh": {"DescentContext": ("s",), "local_parametrix": ("calls",),
           "airy_model": ("calls",)},
    "mc": {"sample_gaussian": ("s",), "sample_invariant": ("s",),
           "empirical_density": ("s",), "local_statistics": ("s",)},
}
PER_LAYER = {
    "specfun": ("calls", "self_s"),
    "kernels": ("calls", "self_s", "fail"),
    "equilibrium": ("calls", "self_s", "fail"),
    "orthopoly": ("calls", "self_s", "fail"),
    "rh": ("calls", "self_s"),
    "mc": ("self_s", "fail"),
    "cli": ("self_s",),
}
COUNTERS = ("specfun.airy_real.points", "equilibrium.iterations",
            "equilibrium.solves_per_potential", "orthopoly.nodes_used",
            "orthopoly.tables_per_weight", "orthopoly.kernel_entries",
            "mc.spectra", "mc.dense_eig_ops_computed")
UNITS = {"calls": "count", "s": "s", "self_s": "s", "fail": "count"}
COUNTER_UNITS = {"equilibrium.solves_per_potential": "ratio",
                 "orthopoly.tables_per_weight": "ratio"}


def metric_names():
    """Every per-layer metric with its unit, in report order."""
    out = []
    for layer, measures in PER_LAYER.items():
        out += [(f"{layer}.{m}", UNITS[m]) for m in measures]
        for fn, fmeasures in PER_FUNCTION.get(layer, {}).items():
            out += [(f"{layer}.{fn}.{m}", UNITS[m]) for m in fmeasures]
        out += [(c, COUNTER_UNITS.get(c, "count")) for c in COUNTERS
                if c.startswith(layer + ".")]
    return out


def exclusive_times(spans):
    excl = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            excl[parent] -= end - start
    return excl


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (spans as recorded)."""
    excl = exclusive_times(spans)
    calls, fails = defaultdict(int), defaultdict(int)
    self_s, incl = defaultdict(float), defaultdict(float)
    info = defaultdict(list)
    for i, (name, start, end, parent, _, ok, extra) in enumerate(spans):
        layer = name.split(".", 1)[0]
        for key in (layer, name):
            calls[key] += 1
            fails[key] += not ok
            self_s[key] += excl[i]
        # inclusive time counts only the outermost span of a name
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            incl[name] += end - start
        if extra:
            info[name].append(extra)

    def total(name, key):
        return sum(d.get(key, 0) for d in info[name])

    def distinct_ratio(name, key):
        keys = {d[key] for d in info[name]}
        return len(info[name]) / len(keys) if keys else 0.0

    measures = {"calls": calls, "fail": fails, "self_s": self_s, "s": incl}
    out = {}
    for metric, _ in metric_names():
        head, _, measure = metric.rpartition(".")
        if measure in measures and metric not in COUNTERS:
            out[metric] = measures[measure].get(head, 0)
    out.update({
        "specfun.airy_real.points": total("specfun.airy_real", "points"),
        "equilibrium.iterations": total("equilibrium.solve_equilibrium", "iterations"),
        "equilibrium.solves_per_potential":
            distinct_ratio("equilibrium.solve_equilibrium", "potential"),
        "orthopoly.nodes_used": total("orthopoly.recurrence_table", "nodes_used"),
        "orthopoly.tables_per_weight":
            distinct_ratio("orthopoly.recurrence_table", "weight"),
        "orthopoly.kernel_entries": total("orthopoly.cd_kernel_grid", "entries"),
        "mc.spectra": total("mc.sample_gaussian", "spectra")
        + total("mc.sample_invariant", "spectra"),
        "mc.dense_eig_ops_computed": total("mc.sample_gaussian", "dense_eig_ops"),
    })
    return out


def root_time(spans):
    """Time covered by root spans: the sum of every layer's self_s."""
    return sum(end - start for _, start, end, parent, *_ in spans if parent < 0)
