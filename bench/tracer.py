"""Span tracer that wraps the public functions of each klgeo layer.

The program is not edited: `Tracer.install` replaces each traced function
at every module attribute (and class attribute) that holds it, so callers
that imported it by name see the wrapper too, and `Tracer.restore` puts the
originals back.  Spans are aggregated in memory per name as they close:
call count, inclusive seconds, and seconds spent in traced child spans
(self time = inclusive - child).
"""
from __future__ import annotations

import functools
import importlib
import math
import sys
import time

# (module, attribute path) of every traced function.  A dotted attribute
# path names a method looked up on its class.
TRACED = (
    ("cli", "main"),
    ("experiments", "run_sweep"),
    ("experiments", "make_sweep_record"),
    ("optimize", "ascend_j_beta"),
    ("optimize", "fit_forward_kl"),
    ("optimize", "fit_tvd"),
    ("ngram", "JBetaObjective.grad_theta"),
    ("ngram", "JBetaObjective.value_theta"),
    ("ngram", "ForwardKLObjective.grad_theta"),
    ("ngram", "ForwardKLObjective.value_theta"),
    ("ngram", "TVDObjective.grad_theta"),
    ("ngram", "TVDObjective.value_theta"),
    ("ngram", "to_distribution"),
    ("ngram", "project_policy"),
    ("geometry", "tilted"),
    ("geometry", "j_beta"),
    ("dist", "expected_reward"),
    ("dist", "total_variation"),
    ("dist", "kl_divergence_finite"),
    ("dist", "entropy"),
    ("dist", "condition"),
    ("io", "write_csv"),
    ("io", "write_json"),
    ("svg", "emit_svg"),
)

ROOT_SPAN = "cli.main"

# Solvers whose returned RunTrace is summarised into solver counts.
SOLVERS = ("optimize.ascend_j_beta", "optimize.fit_forward_kl", "optimize.fit_tvd")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


class Tracer:
    def __init__(self, package: str = "klgeo"):
        self.package = package
        # name -> [calls, inclusive seconds, seconds in traced children]
        self.stats = {span_name(m, a): [0, 0.0, 0.0] for m, a in TRACED}
        # per solver: RunTraces returned, steps, converged, aborted, max |grad|
        self.solvers = {name: {"runs": 0, "steps": 0, "converged": 0,
                               "aborted": 0, "final_grad_norm_max": 0.0}
                        for name in SOLVERS}
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        solver = self.solvers.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += frame[0]
            if solver is not None:
                self._record_solver(solver, result)
            return result

        return traced

    @staticmethod
    def _record_solver(solver, trace):
        solver["runs"] += 1
        solver["steps"] += int(trace.steps_run)
        solver["converged"] += bool(trace.converged)
        solver["aborted"] += bool(trace.aborted)
        g = float(trace.final_grad_norm)
        if math.isfinite(g):
            solver["final_grad_norm_max"] = max(solver["final_grad_norm_max"], g)

    def install(self):
        """Wrap every traced function at every binding inside the package."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module, _ in TRACED:
            importlib.import_module(f"{self.package}.{module}")
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if mod is not None and (key == self.package
                                              or key.startswith(self.package + "."))]
        for module, attr in TRACED:
            name = span_name(module, attr)
            home = sys.modules[f"{self.package}.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[meth]
                self._set(owner, meth, original, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._set(ns, key, original, wrapper)
        return self

    def _set(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def restore(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def bindings(self) -> int:
        """Number of attributes currently replaced by wrappers."""
        return len(self._patched)

    def report(self) -> dict:
        spans = {name: {"calls": c, "s": s, "self_s": s - child}
                 for name, (c, s, child) in self.stats.items()}
        return {"spans": spans, "solvers": self.solvers}
