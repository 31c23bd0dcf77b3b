"""Spans and counts around quartspec's layers, recorded from outside.

`Tracer.install()` replaces every binding of each traced function in the
`quartspec.*` module namespaces (modules that did `from .weyl import
all_deltas` hold their own binding), and `uninstall()` puts the originals
back.  Spans are kept in memory as lists

    [layer, name, start, end, parent index, job id, info, error]

and derived metrics are computed after the run.  `CoefficientField.__call__`
runs up to about 600 000 times per job, so it is only counted.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# layer -> (module, public functions); private helpers are covered by their callers
LAYERS = {
    "propagator": ("quartspec.propagator", ("propagate",)),
    "weyl": ("quartspec.weyl", ("all_deltas", "characteristic_delta", "delta_scale",
                                "weyl_matrix", "weyl_inverse", "phi_matrix")),
    "spectra": ("quartspec.spectra", ("find_real_zeros", "find_complex_zeros",
                                      "find_first_zeros", "three_spectra",
                                      "simplicity_check")),
    "mclaughlin": ("quartspec.mclaughlin", ("eigenfunction", "weight_numbers")),
    "weights": ("quartspec.weights", ("laurent_coefficients", "weight_matrix",
                                      "classify_eigenvalue", "classify_on_problem",
                                      "verify_weight_structure", "case_search")),
    "cli": ("quartspec.cli", ("main",)),
}

LAYER, NAME, START, END, PARENT, JOB, INFO, ERROR = range(8)


def _columns(args):
    init = args.get("init")
    if init is None:
        return 4
    shape = getattr(init, "shape", None) or (len(init),)
    return 1 if len(shape) == 1 else shape[1]


def _delta_key(args):
    return (complex(args["lam"]), bool(args.get("want_dlambda", False)))


# per-function argument summaries kept in the span's info slot
_ARG_INFO = {
    "propagate": _columns,
    "all_deltas": _delta_key,
}
# functions whose result length (zeros found) is kept instead
_RESULT_LEN = {"find_real_zeros", "find_complex_zeros", "find_first_zeros"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.coef_evals = 0
        self._saved = []

    # -- installation ------------------------------------------------------

    def _wrap(self, layer, name, fn):
        tracer = self
        summarize = _ARG_INFO.get(name)
        sig = inspect.signature(fn) if summarize else None
        keep_len = name in _RESULT_LEN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = None
            if summarize:
                bound = sig.bind(*args, **kwargs)
                info = summarize(bound.arguments)
            rec = [layer, name, perf_counter(), 0.0,
                   tracer.stack[-1] if tracer.stack else -1, tracer.job, info, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = perf_counter()
                tracer.stack.pop()
            if keep_len:
                rec[INFO] = len(out)
            return out

        return traced

    def install(self):
        from quartspec.problem import CoefficientField

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "quartspec" or n.startswith("quartspec."))]
        for layer, (modname, names) in LAYERS.items():
            home = sys.modules[modname]
            for name in names:
                orig = getattr(home, name)
                wrapped = self._wrap(layer, name, orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)

        orig_call = CoefficientField.__call__
        tracer = self

        def counted(field, x):
            tracer.coef_evals += 1
            return orig_call(field, x)

        self._saved.append((CoefficientField, "__call__", orig_call))
        CoefficientField.__call__ = counted

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    # -- output --------------------------------------------------------------

    def write(self, path, labels):
        """One JSON line per span; `labels` maps job id to the job's label."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "layer": s[LAYER], "name": s[NAME], "start": s[START],
                    "end": s[END], "parent": s[PARENT], "job": s[JOB],
                    "label": labels.get(s[JOB]), "info": _plain(s[INFO]),
                    "error": s[ERROR]}) + "\n")


def _plain(info):
    if isinstance(info, tuple):
        lam, jet = info
        return {"lambda": [lam.real, lam.imag], "jet": jet}
    return info


def _parent(spans, i, slot):
    """Field `slot` of span i's parent, or None for a root span."""
    p = spans[i][PARENT]
    return spans[p][slot] if p >= 0 else None


def _ancestor(spans, i, names):
    """Index of the nearest enclosing span whose name is in `names`, or -1."""
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return p
        p = spans[p][PARENT]
    return -1


def job_counts(spans, jobs=None):
    """Exact work counts over the spans of `jobs` (all jobs when None)."""
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        if jobs is None or s[JOB] in jobs:
            by_name[s[NAME]].append(i)
    deltas = by_name["all_deltas"]
    first = by_name["find_first_zeros"]
    windows = sum(1 for i in by_name["find_real_zeros"]
                  if _ancestor(spans, i, {"find_first_zeros"}) >= 0)
    top_spectra = [i for i in by_name["find_real_zeros"] + by_name["find_complex_zeros"]
                   + first if _parent(spans, i, LAYER) != "spectra"]
    out = {
        "propagator.propagations": len(by_name["propagate"]),
        "propagator.columns": sum(spans[i][INFO] for i in by_name["propagate"]),
        "weyl.delta_evals": len(deltas),
        "weyl.delta_jet_evals": sum(1 for i in deltas if spans[i][INFO][1]),
        "weyl.delta_distinct": len({(spans[i][JOB],) + spans[i][INFO] for i in deltas}),
        "weyl.delta_distinct_lambda": len({(spans[i][JOB], spans[i][INFO][0]) for i in deltas}),
        "weyl.m_evals": len(by_name["weyl_matrix"]),
        "weyl.scale_delta_evals": sum(1 for i in deltas
                                      if _parent(spans, i, NAME) == "delta_scale"),
        "weyl.pole_errors": sum(1 for i in by_name["weyl_matrix"]
                                if spans[i][ERROR] == "PoleError"),
        "spectra.first_zeros_calls": len(first),
        "spectra.windows_total": windows,
        "spectra.delta_evals": sum(1 for i in deltas
                                   if _parent(spans, i, LAYER) == "spectra"),
        "spectra.zeros": sum(spans[i][INFO] or 0 for i in top_spectra),
        "weights.contour_m_evals": sum(
            1 for i in by_name["weyl_matrix"]
            if _ancestor(spans, i, {"laurent_coefficients"}) >= 0),
        "weights.laurent_errors": sum(1 for i in by_name["laurent_coefficients"]
                                      if spans[i][ERROR] == "LaurentError"),
        "mclaughlin.eigenfunctions": len(by_name["eigenfunction"]),
    }
    return out


def self_times(spans):
    """Per layer: total span time minus the time covered by child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out = defaultdict(float)
    for i, s in enumerate(spans):
        out[s[LAYER]] += (s[END] - s[START]) - child[i]
    return out
