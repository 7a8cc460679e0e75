"""Span tracing around the public functions of each `ohcp` layer.

The wrappers live here, not in `ohcp`: `Tracer.install()` replaces each
traced function in every `ohcp.*` module namespace that binds it (so
`from .complexes import boundary_matrix` in `ohcp.tu` is traced too), and
`Tracer.remove()` puts the originals back. A span records its name, start,
end and parent span; spans stay in memory until `dump_spans()` writes them.
"""
from __future__ import annotations

import json
import statistics
import sys
import time

# layer -> public functions that are spans; every span's time is reported
# as its own self time or inside its parent's
TARGETS = {
    "cli": ("main",),
    "fileio": ("parse_complex", "parse_chain", "parse_weights",
               "parse_coordinates", "parse_matrix"),
    "complexes": ("build_closure", "boundary_matrix", "coface_map",
                  "orient_consistently"),
    "geometry": ("weights_from_coordinates",),
    "solver": ("assemble", "solve"),
    "lp": ("simplex_solve",),
    "matrices": ("det_int",),
    "homology": ("smith_normal_form", "torsion_witness_from_submatrix",
                 "homology_summary"),
    "tu": ("tu_verdict", "find_mobius_subcomplex", "is_tu_minor_enumeration"),
}

ROUTES = {"orientable-manifold-shortcut": "orientable",
          "mobius-search": "mobius", "minor-enumeration": "minors"}

# per-layer metrics: name -> (unit, better); every name is reported
SELF_S = ("lp.simplex_solve", "solver.assemble", "solver.solve",
          "geometry.weights_from_coordinates", "complexes.build_closure",
          "complexes.boundary_matrix", "complexes.coface_map",
          "complexes.orient_consistently",
          "matrices.det_int", "homology.smith_normal_form",
          "homology.torsion_witness_from_submatrix",
          "homology.homology_summary", "tu.tu_verdict",
          "tu.find_mobius_subcomplex", "tu.is_tu_minor_enumeration",
          "fileio.parse", "cli.main")
CALLS = ("lp.simplex_solve", "complexes.boundary_matrix",
         "complexes.coface_map", "matrices.det_int",
         "homology.smith_normal_form", "tu.find_mobius_subcomplex")
COUNTERS = ("lp.tableau_cells", "solver.fractional.count",
            "tu.route.orientable.count", "tu.route.mobius.count",
            "tu.route.minors.count", "tu.undecided.count")

PER_LAYER = {}
for _n in SELF_S:
    PER_LAYER[f"{_n}.self_s"] = ("s", "lower")
for _n in CALLS:
    PER_LAYER[f"{_n}.calls"] = ("count", "lower")
for _n in COUNTERS:
    PER_LAYER[_n] = ("count", "lower")
PER_LAYER["lp.share"] = ("ratio", "lower")
PER_LAYER["trace.wall_s"] = ("s", "lower")
PER_LAYER["trace.overhead_s"] = ("s", "lower")


def _metric_name(span_name):
    layer, fn = span_name.split(".", 1)
    return "fileio.parse" if fn.startswith("parse_") else span_name


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans = []             # [name, start, end, parent index]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._patched = []          # (module, attribute, original)

    def _hook(self, name, args, result, exc):
        c = self.counters
        if name == "lp.simplex_solve" and args:
            m, n = args[0].num_constraints, args[0].num_vars
            c["lp.tableau_cells"] += m * (n + m)
        elif name == "solver.solve" and result is not None:
            c["solver.fractional.count"] += not result.integral
        elif name == "tu.tu_verdict":
            if result is not None and result.method in ROUTES:
                c[f"tu.route.{ROUTES[result.method]}.count"] += 1
            elif type(exc).__name__ in ("Undecided", "BudgetExceeded"):
                c["tu.undecided.count"] += 1

    def _wrap(self, name, fn):
        spans, stack, hook = self.spans, self._stack, self._hook
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(idx)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                spans[idx][2] = clock()
                stack.pop()
                hook(name, args, result, exc)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "ohcp" or k.startswith("ohcp."))]
        for layer, names in TARGETS.items():
            home = sys.modules[f"ohcp.{layer}"]
            for attr in names:
                original = getattr(home, attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for mod in modules:
                    if mod.__dict__.get(attr) is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def remove(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def reset(self):
        self.spans.clear()
        self.counters = dict.fromkeys(COUNTERS, 0)

    def layer_metrics(self, wall_s):
        """Self time and calls per metric name for the spans recorded since
        the last reset, plus the counters; `wall_s` is the traced wall time
        those spans ran in."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        self_s = dict.fromkeys(SELF_S, 0.0)
        calls = dict.fromkeys(CALLS, 0)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            key = _metric_name(name)
            if key in self_s:
                self_s[key] += (t1 - t0) - child[i]
            if key in calls:
                calls[key] += 1
        out = {f"{k}.self_s": v for k, v in self_s.items()}
        out.update({f"{k}.calls": v for k, v in calls.items()})
        out.update(self.counters)
        out["lp.share"] = self_s["lp.simplex_solve"] / wall_s
        out["trace.wall_s"] = wall_s
        return out

def dump_spans(path, passes):
    """Write each traced pass's spans as [name, start, end, parent]."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"passes": passes}, f)


def median_metrics(per_pass):
    """Median of each metric over traced passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
