"""Per-layer tracing from outside the program.

Two sources, both switched on only for the traced pass:

* Span wrappers around the public module-level functions of the upper
  layers. Each wrapper is bound at every import site (every mcalc module
  namespace that holds the function), because modules import each other's
  functions by name. A call opens a span (name, start, end, parent) only when
  it comes from another layer or from the benchmark; calls within a layer
  run inside the open span. A layer's busy time is the union of its spans.
  Return values feed the deterministic counts.
* cProfile, for the arithmetic layers, where a span per call would swamp the
  run: call counts of scalar, polynomial and monomial operations, and every
  layer's self time. A layer's self time is the profiler's own time of the
  functions in its module plus that of the stdlib and builtin functions it
  calls (for example `fractions`), shared out by caller.

Times taken here include the profiler's cost, so they compare traced runs
with traced runs only; end-to-end times come from the untraced passes.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import sys
import time
from collections import Counter
from contextlib import contextmanager

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

SPANNED = ("groebner", "fpmodules", "koszul", "multiplicity", "parsing",
           "session", "cli", "scenarios")
SELF_TIMED = ("scalars", "polyring", "groebner", "fpmodules", "koszul",
              "multiplicity", "cli")

# (file, function names) whose profiler call counts make each count metric
PROFILE_COUNTS = {
    "scalars.ops": ("scalars", ("__add__", "__neg__", "__sub__", "__rsub__",
                                "__mul__", "inverse", "__truediv__",
                                "__rtruediv__", "__pow__")),
    "scalars.inverse_calls": ("scalars", ("inverse",)),
    "polyring.poly_ops": ("polyring", ("__add__", "__neg__", "__sub__",
                                       "__rsub__", "__mul__", "mul_term",
                                       "__pow__", "monic")),
    "polyring.monomial_ops": ("polyring", ("mul", "divides", "div", "lcm", "pow")),
    "polyring.lead_calls": ("polyring", ("lead",)),
    "polyring.order_key_calls": ("polyring", ("key",)),
    "groebner.spolys": ("groebner", ("spolynomial",)),
}

# Every per-layer metric, in the order BENCHMARK.json lists them.
METRICS = (
    ("scalars.ops", "count"), ("scalars.inverse_calls", "count"),
    ("scalars.self_s", "s"),
    ("polyring.poly_ops", "count"), ("polyring.monomial_ops", "count"),
    ("polyring.lead_calls", "count"), ("polyring.order_key_calls", "count"),
    ("polyring.self_s", "s"),
    ("groebner.gb_calls", "count"), ("groebner.spolys", "count"),
    ("groebner.basis_size", "count"), ("groebner.selfcheck_s", "s"),
    ("groebner.busy_s", "s"), ("groebner.self_s", "s"),
    ("fpmodules.module_gb_calls", "count"), ("fpmodules.syzygy_calls", "count"),
    ("fpmodules.syzygies_out", "count"), ("fpmodules.preimage_kept_ratio", "ratio"),
    ("fpmodules.busy_s", "s"), ("fpmodules.self_s", "s"),
    ("koszul.homology_calls", "count"), ("koszul.presentation_rank", "count"),
    ("koszul.presentation_relations", "count"),
    ("koszul.busy_s", "s"), ("koszul.self_s", "s"),
    ("multiplicity.table_entries", "count"),
    ("multiplicity.module_gb_per_entry", "ratio"),
    ("multiplicity.busy_s", "s"), ("multiplicity.self_s", "s"),
    ("parsing.polys_parsed", "count"), ("parsing.busy_s", "s"),
    ("session.busy_s", "s"),
    ("cli.commands", "count"), ("cli.busy_s", "s"), ("cli.self_s", "s"),
    ("scenarios.runs", "count"), ("scenarios.busy_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Span wrappers plus a profiler for one traced pass."""

    def __init__(self, package):
        self.package = package
        self.pkg_dir = os.path.dirname(os.path.abspath(package.__file__))
        self.profile = cProfile.Profile()
        self.enabled = False
        self.spans = []          # [name, layer, start, end, parent index, outermost]
        self.open_spans = []     # indices of the spans that are open
        self.calls = []          # (layer, name) of active wrapped calls
        self.active = Counter()  # (layer, name) -> active depth
        self.layer_depth = Counter()
        self.counts = Counter()
        self._bindings = []      # (namespace, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == self.package.__name__ or n.startswith(self.package.__name__ + "."))
                   and m is not None]
        wrappers = {}
        for layer in SPANNED:
            mod = sys.modules[f"{self.package.__name__}.{layer}"]
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and callable(fn)
                        and getattr(fn, "__module__", None) == mod.__name__
                        and type(fn).__name__ == "function"):
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    @contextmanager
    def tracing(self):
        """Spans and profiler on for the body."""
        self.enabled = True
        self.profile.enable()
        try:
            yield
        finally:
            self.profile.disable()
            self.enabled = False

    @contextmanager
    def paused(self):
        """Spans and profiler off, for the benchmark's own checks."""
        was = self.enabled
        if was:
            self.profile.disable()
            self.enabled = False
        try:
            yield
        finally:
            if was:
                self.enabled = True
                self.profile.enable()

    def _wrap(self, layer, name, fn):
        key = (layer, name)
        hook = getattr(self, f"_on_{layer}_{name}", None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.counts[key] += 1
            span = None
            if not self.calls or self.calls[-1][0] != layer:
                parent = self.open_spans[-1] if self.open_spans else None
                span = len(self.spans)
                # a span nested in an open span of its own layer adds no busy time
                self.spans.append([name, layer, clock(), None, parent,
                                   self.layer_depth[layer] == 0])
                self.open_spans.append(span)
                self.layer_depth[layer] += 1
            self.calls.append(key)
            self.active[key] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self.active[key] -= 1
                self.calls.pop()
                if span is not None:
                    self.spans[span][3] = clock()
                    self.open_spans.pop()
                    self.layer_depth[layer] -= 1
            if hook is not None:
                hook(result)
            return result
        return wrapper

    # -- counts taken from return values ---------------------------------------

    def _on_groebner_buchberger(self, gb):
        self.counts["groebner.basis_size"] += len(gb.generators)

    def _on_fpmodules_syzygies(self, syz):
        self.counts["fpmodules.syzygies_out"] += len(syz)
        if self.calls and self.calls[-1] == ("fpmodules", "preimage_submodule"):
            self.counts["preimage.syzygies_in"] += len(syz)

    def _on_fpmodules_preimage_submodule(self, gens):
        self.counts["preimage.kept"] += len(gens)

    def _on_fpmodules_module_gb(self, _gb):
        if self.active[("multiplicity", "multiplicity_data")] or \
                self.active[("multiplicity", "hilbert_samuel_lengths")]:
            self.counts["multiplicity.module_gb"] += 1

    def _on_koszul_koszul_homology(self, H):
        self.counts["koszul.presentation_rank"] += H.rank
        self.counts["koszul.presentation_relations"] += len(H.relations)

    def _on_multiplicity_multiplicity_data(self, data):
        self.counts["multiplicity.table_entries"] += len(data[1])

    def _on_multiplicity_hilbert_samuel_lengths(self, seq):
        self.counts["multiplicity.table_entries"] += len(seq.values)

    def _on_parsing_parse_polynomial(self, _poly):
        self.counts["parsing.polys_parsed"] += 1

    def _on_parsing_parse_polynomial_list(self, polys):
        self.counts["parsing.polys_parsed"] += len(polys)

    def _on_parsing_parse_bracketed_list(self, polys):
        self.counts["parsing.polys_parsed"] += len(polys)

    def _on_scenarios_run_all(self, results):
        self.counts["scenarios.runs"] += len(results[0])

    # -- reduction to metrics ------------------------------------------------------

    def _layer_of(self, filename):
        if os.path.dirname(os.path.abspath(filename)) == self.pkg_dir:
            return os.path.splitext(os.path.basename(filename))[0]
        return None

    def _profile_metrics(self):
        stats = pstats.Stats(self.profile).stats
        layer_of = {}
        for key in stats:
            filename = key[0]
            if filename == "~" or filename.startswith("<"):
                layer_of[key] = None
            else:
                layer_of[key] = self._layer_of(filename) or (
                    "bench" if os.path.abspath(filename).startswith(_BENCH_DIR) else None)

        memo = {}

        def shares(key, visiting):
            """How a stdlib or builtin function's own time splits over layers."""
            if key in memo:
                return memo[key]
            if key in visiting:
                return {}
            visiting.add(key)
            callers = stats[key][4]
            total = sum(v[2] for v in callers.values())
            out = Counter()
            if total > 0:
                for caller, v in callers.items():
                    w = v[2] / total
                    layer = layer_of.get(caller)
                    if layer is not None:
                        out[layer] += w
                    elif caller in stats:
                        for lay, s in shares(caller, visiting).items():
                            out[lay] += w * s
            visiting.discard(key)
            memo[key] = out
            return out

        self_s = Counter()
        for key, (cc, nc, tt, ct, callers) in stats.items():
            layer = layer_of[key]
            if layer is not None:
                self_s[layer] += tt
            else:
                for lay, s in shares(key, set()).items():
                    self_s[lay] += tt * s

        counts = Counter()
        selfcheck = 0.0
        for key, (cc, nc, tt, ct, callers) in stats.items():
            layer, fname = layer_of[key], key[2]
            for metric, (mod, names) in PROFILE_COUNTS.items():
                if layer == mod and fname in names:
                    counts[metric] += nc
            if layer == "groebner" and fname == "_self_check":
                selfcheck += ct
        return self_s, counts, selfcheck

    def busy(self):
        busy = Counter()
        for name, layer, start, end, parent, outermost in self.spans:
            if outermost:
                busy[layer] += end - start
        return busy

    def metrics(self, overhead_s):
        """Every per-layer metric as {name: (value, unit)}."""
        self_s, prof_counts, selfcheck = self._profile_metrics()
        busy = self.busy()
        c = self.counts
        kept, syz_in = c["preimage.kept"], c["preimage.syzygies_in"]
        entries = c["multiplicity.table_entries"]
        values = dict(prof_counts)
        values.update({
            "groebner.gb_calls": c[("groebner", "buchberger")],
            "groebner.basis_size": c["groebner.basis_size"],
            "groebner.selfcheck_s": selfcheck,
            "fpmodules.module_gb_calls": c[("fpmodules", "module_gb")],
            "fpmodules.syzygy_calls": c[("fpmodules", "syzygies")],
            "fpmodules.syzygies_out": c["fpmodules.syzygies_out"],
            "fpmodules.preimage_kept_ratio": kept / syz_in if syz_in else 0.0,
            "koszul.homology_calls": c[("koszul", "koszul_homology")],
            "koszul.presentation_rank": c["koszul.presentation_rank"],
            "koszul.presentation_relations": c["koszul.presentation_relations"],
            "multiplicity.table_entries": entries,
            "multiplicity.module_gb_per_entry":
                c["multiplicity.module_gb"] / entries if entries else 0.0,
            "parsing.polys_parsed": c["parsing.polys_parsed"],
            "cli.commands": c[("cli", "main")],
            "scenarios.runs": c[("scenarios", "run_scenario")] + c["scenarios.runs"],
            "trace.overhead_s": overhead_s,
        })
        for layer in SPANNED:
            values[f"{layer}.busy_s"] = busy[layer]
        for layer in SELF_TIMED:
            values[f"{layer}.self_s"] = self_s[layer]
        return {name: (values.get(name, 0), unit) for name, unit in METRICS}

