"""Per-layer tracing of numindex from outside the package.

Only traced runs import this module.  ``install`` replaces each traced
public function everywhere it is looked up -- its own module, every
numindex module that imported the name, and the package namespace -- so
that calls such as ``optimize.norm`` are seen too.  Every call adds to
its function's call count and self time (duration minus the time of
traced calls inside it).  The hot space kernels and the ascent loop keep
only these aggregates; calls from the estimators upwards also keep a span
(name, start, end, parent span, job id) in memory.
"""

from __future__ import annotations

import time

import numindex
from numindex import cli, index, operators, optimize, radius, spaces, suites

#: aggregate-only functions: called 10^5 to 10^6 times per workload
HOT = (("spaces", "norm"), ("spaces", "norming_functional"),
       ("spaces", "dual_descriptor"), ("spaces", "unit_sphere_sample"),
       ("optimize", "maximize_on_sphere"))

RADIUS = ("numerical_radius", "radius_grid_oracle", "radius_enumerate",
          "absolute_radius", "poly_radius")
INDEX = ("numerical_index_estimate", "rank_r_index_estimate",
         "absolute_index_estimate", "poly_index_estimate")
#: suite entry points and the short names their metrics use
SUITES = {"lcc": "lcc_check", "gcc": "gcc_check", "sums": "sum_index_check",
          "duality": "duality_check", "bounds": "bounds_check"}

SPANNED = ([("radius", f) for f in RADIUS] + [("operators", "op_norm"),
           ("operators", "compose_with_projection")] +
           [("index", f) for f in INDEX] + [("suites", f) for f in SUITES.values()] +
           [("cli", "main")])

MODULES = {"spaces": spaces, "optimize": optimize, "radius": radius,
           "operators": operators, "index": index, "suites": suites, "cli": cli}


def _new_stats() -> dict:
    return {"calls": 0, "self_s": 0.0, "total_s": 0.0, "evals": 0, "enumerate": 0,
            "exact": 0, "restarts": 0}


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.spans: list[list] = []     # [name, start, end, parent, job]
        self.job = None
        self._stack: list[list] = []     # [child seconds, span id] per open call

    def wrap(self, name: str, fn, spanned: bool):
        st = self.stats.setdefault(name, _new_stats())
        stack, spans, perf = self._stack, self.spans, time.perf_counter
        radius_call = name.startswith("radius.")

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0.0, len(spans) if spanned else parent]
            stack.append(frame)
            t0 = perf()
            if spanned:
                spans.append([name, t0, None, parent, self.job])
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                st["calls"] += 1
                st["self_s"] += t1 - t0 - frame[0]
                st["total_s"] += t1 - t0
                if spanned:
                    spans[frame[1]][2] = t1
            if radius_call:
                # evals of the outermost radius call only: numerical_radius
                # hands its result up from radius_enumerate unchanged
                if parent is None or not spans[parent][0].startswith("radius."):
                    st["evals"] += out.evals
                st["enumerate"] += out.method == "enumerate"
            elif name == "optimize.maximize_on_sphere":
                st["evals"] += out[2]
            elif name == "operators.op_norm":
                st["exact"] += out.method == "exact"
            elif name.startswith("index."):
                st["restarts"] += out.restarts_used
            return out

        return traced

    def install(self):
        """Wrap the traced functions; returns a callable that undoes it."""
        undo = []
        originals = {}
        for mod, fn in HOT + tuple(SPANNED):
            orig = getattr(MODULES[mod], fn)
            originals[orig] = self.wrap(f"{mod}.{fn}", orig, (mod, fn) in SPANNED)
        for module in [numindex, *MODULES.values()]:
            for attr, val in list(vars(module).items()):
                if callable(val) and val in originals:
                    undo.append((module, attr, val))
                    setattr(module, attr, originals[val])
        at = spaces.NormingPair.__dict__["at"]
        spaces.NormingPair.at = staticmethod(
            self.wrap("spaces.NormingPair.at", at.__func__, False))
        undo.append((spaces.NormingPair, "at", at))

        def uninstall():
            for owner, attr, val in reversed(undo):
                setattr(owner, attr, val)
        return uninstall

    def metrics(self) -> dict:
        """Per-layer metrics, keyed <module>.<function>.{calls,self_s} plus
        the derived ratios; a function never called reports zeros."""
        out = {}

        def st(name):
            return self.stats.get(name) or _new_stats()

        def frac(num, den):
            return num / den if den else 0.0

        def calls_self(name):
            out[f"{name}.calls"] = (st(name)["calls"], "count")
            out[f"{name}.self_s"] = (st(name)["self_s"], "s")

        for name in ("spaces.norm", "spaces.norming_functional",
                     "spaces.dual_descriptor", "spaces.unit_sphere_sample",
                     "spaces.NormingPair.at", "optimize.maximize_on_sphere"):
            calls_self(name)
        ms = st("optimize.maximize_on_sphere")
        out["optimize.us_per_eval"] = (1e6 * frac(ms["self_s"], ms["evals"]), "us")
        for f in RADIUS:
            calls_self(f"radius.{f}")
        out["radius.evals"] = (sum(st(f"radius.{f}")["evals"] for f in RADIUS), "count")
        nr = st("radius.numerical_radius")
        out["radius.enumerate_frac"] = (frac(nr["enumerate"], nr["calls"]), "1")
        calls_self("operators.op_norm")
        on = st("operators.op_norm")
        out["operators.op_norm.exact_frac"] = (frac(on["exact"], on["calls"]), "1")
        out["operators.compose_with_projection.calls"] = (
            st("operators.compose_with_projection")["calls"], "count")
        for f in INDEX:
            calls_self(f"index.{f}")
        out["index.ratio_evals"] = (sum(st(f"index.{f}")["restarts"] for f in INDEX),
                                    "count")
        for short, f in SUITES.items():
            out[f"suites.{short}.s"] = (st(f"suites.{f}")["total_s"], "s")
        out["cli.main.self_s"] = (st("cli.main")["self_s"], "s")
        return out
