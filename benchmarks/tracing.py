"""Span recording around the public functions of the qaw modules.

The tracer wraps functions from outside the package: every module attribute
that is bound to a traced function (``qaw.identities`` and ``qaw.qops``
import the ``qcore`` functions by name, ``qaw`` re-exports most of them) is
replaced by a wrapper, and so are the check functions held in
``IDENTITY_REGISTRY``.  Each wrapped call records one span (name, start,
end, parent).  Spans stay in compact in-memory arrays until the run ends;
the per-layer metrics are derived from them afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, function, span name).  Functions not listed here (small helpers
# such as q_pochhammer_multi) fold into the self time of their caller.
TRACED = [
    ("qaw.qcore", "q_pochhammer_infinite", "qcore.q_pochhammer_infinite"),
    ("qaw.qcore", "q_pochhammer_infinite_log", "qcore.q_pochhammer_infinite_log"),
    ("qaw.qcore", "q_pochhammer", "qcore.q_pochhammer"),
    ("qaw.qcore", "h_cos", "qcore.h_cos"),
    ("qaw.qcore", "h_sinh_log", "qcore.h_sinh_log"),
    ("qaw.qcore", "phi_series", "qcore.phi_series"),
    ("qaw.qcore", "q_gamma", "qcore.q_gamma"),
    ("qaw.qops", "fractional_q_integral", "qops.fractional_q_integral"),
    ("qaw.qops", "jackson_q_integral", "qops.jackson_q_integral"),
    ("qaw.qops", "cauchy_T_apply", "qops.cauchy_T_apply"),
    ("qaw.quad", "integrate_theta", "quad.integrate"),
    ("qaw.quad", "integrate_line_even_window", "quad.integrate"),
    ("qaw.identities", "ksum", "identities.ksum"),
    ("qaw.identities", "run_check", "identities.runner"),
    ("qaw.identities", "run_suite", "identities.runner"),
    ("qaw.suite", "expand_suite", "suite.expand_suite"),
    ("qaw.cli", "main", "cli.main"),
]

QCORE = ["q_pochhammer_infinite", "q_pochhammer_infinite_log", "q_pochhammer",
         "h_cos", "h_sinh_log", "phi_series", "q_gamma"]
QOPS = ["fractional_q_integral", "jackson_q_integral", "cauchy_T_apply"]

# span names whose self time counts as identities.check.self_s: the check
# functions, the suite/check runner and the integrand closures they hand to
# the quadrature engine
_IDENTITY_SELF = ("identities.check", "identities.runner", "identities.integrand")


def unit_of(metric):
    if metric.endswith("self_s"):
        return "s"
    return {"quad.useful_ratio": "ratio", "quad.window_halfwidth": "t",
            "cli.report_bytes": "bytes"}.get(metric, "count")


class Tracer:
    """Records spans for wrapped calls; one instance per traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self.counts = {"k_terms": 0, "nodes_used": 0, "windows": 0,
                       "window_halfwidth": 0.0, "report_bytes": 0}
        self._patched = []

    # -- recording ------------------------------------------------------

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _span(self, fn, name, on_result=None):
        nid = self._id(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _on_report(self, report):
        diag = {**report.lhs_diag, **report.rhs_diag}
        self.counts["k_terms"] += int(diag.get("k_terms", 0))

    def _on_quad(self, res):
        self.counts["nodes_used"] += res.nodes_used
        if res.window is not None:
            self.counts["windows"] += 1
            self.counts["window_halfwidth"] += res.window[1]

    def _quad_entry(self, fn):
        # the integrand passed in becomes a span of its own, so that its
        # count is the number of integrand evaluations and its own Python
        # work is charged to identities rather than to the engine
        wrapped = self._span(fn, "quad.integrate", self._on_quad)

        @functools.wraps(fn)
        def entry(f, *args, **kwargs):
            return wrapped(self._span(f, "identities.integrand"), *args, **kwargs)

        return entry

    # -- installation ---------------------------------------------------

    def install(self):
        """Replace every binding of a traced function inside ``qaw``."""
        import qaw.cli  # noqa: F401  (load every module before patching)
        import qaw.identities as identities

        modules = [m for n, m in sys.modules.items()
                   if n == "qaw" or n.startswith("qaw.")]
        replace = {}
        for mod_name, fn_name, span in TRACED:
            fn = getattr(sys.modules[mod_name], fn_name)
            if span == "quad.integrate":
                replace[fn] = self._quad_entry(fn)
            else:
                replace[fn] = self._span(fn, span)
        for name, (cls, fn) in list(identities.IDENTITY_REGISTRY.items()):
            w = self._span(fn, "identities.check", self._on_report)
            replace[fn] = w
            identities.IDENTITY_REGISTRY[name] = (cls, w)
            self._patched.append((identities.IDENTITY_REGISTRY, name, (cls, fn)))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                try:
                    new = replace.get(value)
                except TypeError:  # unhashable attribute
                    continue
                if new is not None:
                    self._patched.append((vars(mod), attr, value))
                    setattr(mod, attr, new)

    def uninstall(self):
        for namespace, key, value in reversed(self._patched):
            namespace[key] = value
        self._patched.clear()

    # -- results --------------------------------------------------------

    def arrays(self):
        return (np.asarray(self.name_id, dtype=np.int32),
                np.asarray(self.start, dtype=np.int64),
                np.asarray(self.end, dtype=np.int64),
                np.asarray(self.parent, dtype=np.int32))

    def save(self, path):
        name_id, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            start_ns=start, end_ns=end, parent=parent)

    def layer_metrics(self, passes):
        """Per-pass totals of every per-layer metric, derived from the spans."""
        name_id, start, end, parent = self.arrays()
        dur = (end - start).astype(np.float64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        n = len(self.names)
        calls = np.bincount(name_id, minlength=n)
        self_by_name = np.bincount(name_id, weights=self_ns, minlength=n)

        def count(name):
            i = self._ids.get(name)
            return int(calls[i]) if i is not None else 0

        def self_s(*names):
            return sum(float(self_by_name[self._ids[x]]) for x in names
                       if x in self._ids) / 1e9

        c = self.counts
        evals = count("identities.integrand")
        raw = {
            "identities.check.calls": count("identities.check"),
            "identities.check.self_s": self_s(*_IDENTITY_SELF),
            "identities.ksum.calls": count("identities.ksum"),
            "identities.ksum.self_s": self_s("identities.ksum"),
            "identities.ksum.k_terms": c["k_terms"],
            "quad.calls": count("quad.integrate"),
            "quad.self_s": self_s("quad.integrate"),
            "quad.integrand_evals": evals,
            "quad.nodes_used": c["nodes_used"],
        }
        for fn in QCORE:
            raw[f"qcore.{fn}.calls"] = count(f"qcore.{fn}")
            raw[f"qcore.{fn}.self_s"] = self_s(f"qcore.{fn}")
        for fn in QOPS:
            raw[f"qops.{fn}.calls"] = count(f"qops.{fn}")
            raw[f"qops.{fn}.self_s"] = self_s(f"qops.{fn}")
        raw["suite.expand_suite.self_s"] = self_s("suite.expand_suite")
        raw["cli.self_s"] = self_s("cli.main")
        raw["cli.report_bytes"] = c["report_bytes"]
        out = {k: v / passes for k, v in raw.items()}
        # ratios are not per-pass totals
        out["quad.useful_ratio"] = c["nodes_used"] / evals if evals else 0.0
        out["quad.window_halfwidth"] = (
            c["window_halfwidth"] / c["windows"] if c["windows"] else 0.0)
        return out
