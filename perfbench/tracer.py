"""Spans around pencil_forge's public functions, installed from outside.

The modules call one another through module attributes (``sc.is_zero``,
``dg.levi_civita``) and a few names imported with ``from ... import``, so
install() replaces every binding of a wrapped function in every loaded
``pencil_forge`` module, and the methods on their classes.  Each call
records a span (name, start, end, parent span, case); the tracer keeps the
spans in memory and write() puts them out as JSON lines when the process
ends.  A span's self time is its duration minus the durations of its
direct child spans; a function's total time counts only its outermost
calls, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# module -> public functions to wrap ("Class.method" for methods)
WRAPPED = {
    "symcore": ["Context.parse", "is_zero", "diff", "total_x_derivative",
                "substitute", "antiderivative", "render"],
    "diffgeo": ["levi_civita", "riemann", "constant_curvature", "killing_defect",
                "cyclic_defect", "mat_det", "mat_inverse"],
    "operators": ["validate_nonlocal", "validate_local", "liouville_potential",
                  "h_potential_check", "NonlocalIsometryOp.from_metric"],
    "pencil": ["pair_check", "compatible", "almost_compatible"],
    "hierarchy": ["recursion_operator", "magri_step", "apply_operator",
                  "flow_from_density", "variational_gradient", "operator_symbols",
                  "symbols_equal"],
    "catalog": ["verify_case", "degenerate_split_check"],
    "cli": ["main", "load_case_file", "validate_case_data"],
}
# Expr.normal_form calls that compute a normal form get this span; calls
# that return the stored one count as cache hits
NORMALIZE = "symcore.normalize"
SETUP_SPANS = ("setup.import", "setup.cases")


def function_spans() -> list[str]:
    names = [f"{mod}.{attr.rsplit('.', 1)[-1]}"
             for mod, attrs in WRAPPED.items() for attr in attrs]
    return names + [NORMALIZE]


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in order."""
    out = [f"{name}.{stat}" for name in function_spans()
           for stat in ("calls", "self_s", "total_s")]
    out += [f"{mod}.self_s" for mod in WRAPPED]
    out += [f"{NORMALIZE}.cache_hits", "symcore.probe.checked"]
    out += [f"{name}.total_s" for name in SETUP_SPANS]
    out += ["trace.overhead_s"]
    return out


class Tracer:
    def __init__(self):
        self.case = "setup"
        self.spans: list = []
        self._stack: list[list] = []  # [span index, child seconds]
        self._depth: dict[str, int] = {}
        self.stats = {name: [0, 0.0, 0.0] for name in function_spans() + list(SETUP_SPANS)}
        self.cache_hits = 0

    def record(self, name: str, start: float, end: float):
        """A span measured by the caller, outside any other span."""
        self.spans.append((name, start, end, -1, self.case))
        st = self.stats[name]
        st[0] += 1
        st[1] += end - start
        st[2] += end - start

    def wrap(self, name: str, fn):
        stats = self.stats[name]
        spans, stack, depth = self.spans, self._stack, self._depth
        depth[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed - frame[1]
                if depth[name] == 0:
                    stats[2] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                spans[frame[0]] = (name, start, end, parent, self.case)

        return traced

    def install(self):
        """Wraps every function in WRAPPED and Expr.normal_form."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "pencil_forge" or key.startswith("pencil_forge.")]
        for mod_name, attrs in WRAPPED.items():
            mod = importlib.import_module(f"pencil_forge.{mod_name}")
            for attr in attrs:
                span = f"{mod_name}.{attr.rsplit('.', 1)[-1]}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(span, raw.__func__)))
                    else:
                        setattr(cls, meth, self.wrap(span, raw))
                    continue
                original = getattr(mod, attr)
                traced = self.wrap(span, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, traced)

        from pencil_forge.symcore import Expr

        plain = Expr.normal_form
        computing = self.wrap(NORMALIZE, plain)

        def normal_form(expr):
            if getattr(expr, "_nf", None) is not None:
                self.cache_hits += 1
                return plain(expr)
            return computing(expr)

        Expr.normal_form = normal_form

    def summary(self, probe_checked: int) -> dict:
        out = {}
        for name in function_spans():
            calls, self_s, total_s = self.stats[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.total_s"] = total_s
        for mod in WRAPPED:
            out[f"{mod}.self_s"] = sum(
                self.stats[name][1] for name in function_spans()
                if name.split(".")[0] == mod
            )
        out[f"{NORMALIZE}.cache_hits"] = self.cache_hits
        out["symcore.probe.checked"] = probe_checked
        for name in SETUP_SPANS:
            out[f"{name}.total_s"] = self.stats[name][2]
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, case in self.spans:
                fh.write(json.dumps([name, start, end, parent, case]) + "\n")
