"""Tracing of graphalg's layers from outside the package.

The tracer wraps public functions and methods of graphalg and patches
every module that imported them, so that calls between graphalg's own
modules are seen too.  Each wrapped call records a span (id, name,
start, end, parent span, job) and bumps counters at the same boundary.
Spans stay in memory and are written out when the run ends.

Only the traced run installs the tracer; the end-to-end figures come
from runs without it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, function, span name)
FUNCTIONS = [
    ("cli", "parse_document", "cli.parse"),
    ("fundamental", "critical_group", "fundamental.critical_group"),
    ("fundamental", "upsilon", "fundamental.upsilon"),
    ("fundamental", "laplacian_charpoly", "fundamental.laplacian_charpoly"),
    ("fundamental", "eigen_multiplicity", "fundamental.eigen_multiplicity"),
    ("network", "laplacian_matrix", "network.laplacian"),
    ("network", "is_nondegenerate", "network.is_nondegenerate"),
    ("network", "apply_L", "network.apply_L"),
    ("network", "U0_QmodZ", "network.U0_QmodZ"),
    ("network", "U0_mod_n", "network.U0_mod_n"),
    ("exact_algebra", "snf", "exact_algebra.snf"),
    ("exact_algebra", "rank_over_Q", "exact_algebra.rank"),
    ("exact_algebra", "charpoly", "exact_algebra.charpoly"),
    ("exact_algebra", "determinant", "exact_algebra.determinant"),
    ("layering", "find_strippable", "layering.find_strippable"),
    ("layering", "apply_op", "layering.apply_op"),
    ("layering", "reduce_to_flower", "layering.reduce_to_flower"),
    ("layering", "is_layerable", "layering.is_layerable"),
    ("layering", "standard_form_filtration", "layering.standard_form_filtration"),
    ("layering", "is_completely_reducible", "layering.is_completely_reducible"),
    ("continuation", "continuation_plan", "continuation.plan"),
    ("continuation", "complementary_plan", "continuation.plan"),
    ("continuation", "initial_transform", "continuation.transform"),
    ("continuation", "spike_transform", "continuation.transform"),
    ("continuation", "edge_transform", "continuation.transform"),
    ("continuation", "continue_harmonic", "continuation.continue"),
    ("continuation", "u0_matrix_A", "continuation.u0_matrix_A"),
    ("continuation", "u0_via_continuation", "continuation.u0_via_continuation"),
    ("planar", "dual", "planar.dual"),
]

# Per-layer metrics: name, unit, and how it is read from the trace.
# "incl" is the time inside outermost spans of that name, "self" the
# time not covered by child spans; both are per round of the job list.
PER_LAYER = [
    ("cli.parse_ms", "ms", "incl", "cli.parse"),
    ("cli.self_ms", "ms", "self", "cli.main"),
    ("fundamental.upsilon.calls", "count", "calls", "fundamental.upsilon"),
    ("network.laplacian.calls", "count", "calls", "network.laplacian"),
    ("network.laplacian_ms", "ms", "incl", "network.laplacian"),
    ("network.is_nondegenerate.calls", "count", "calls", "network.is_nondegenerate"),
    ("network.apply_L.calls", "count", "calls", "network.apply_L"),
    ("network.apply_L_ms", "ms", "incl", "network.apply_L"),
    ("exact_algebra.snf.calls", "count", "calls", "exact_algebra.snf"),
    ("exact_algebra.snf_ms", "ms", "incl", "exact_algebra.snf"),
    ("exact_algebra.snf.transform_bits", "bits", "max", "exact_algebra.snf.transform_bits"),
    ("exact_algebra.rank.calls", "count", "calls", "exact_algebra.rank"),
    ("exact_algebra.rank_ms", "ms", "incl", "exact_algebra.rank"),
    ("exact_algebra.charpoly_ms", "ms", "incl", "exact_algebra.charpoly"),
    ("exact_algebra.determinant.calls", "count", "calls", "exact_algebra.determinant"),
    ("exact_algebra.factor_ms", "ms", "incl", "exact_algebra.factor"),
    ("exact_algebra.matmul.calls", "count", "calls", "exact_algebra.matmul"),
    ("exact_algebra.matmul_ms", "ms", "incl", "exact_algebra.matmul"),
    ("exact_algebra.matvec.calls", "count", "calls", "exact_algebra.matvec"),
    ("exact_algebra.matvec_ms", "ms", "incl", "exact_algebra.matvec"),
    ("partial_graph.graphs_built", "count", "count", "partial_graph.graphs_built"),
    ("partial_graph.star.calls", "count", "count", "partial_graph.star.calls"),
    ("layering.find_strippable.calls", "count", "calls", "layering.find_strippable"),
    ("layering.find_strippable_ms", "ms", "incl", "layering.find_strippable"),
    ("layering.moves", "count", "calls", "layering.apply_op"),
    ("layering.apply_op_ms", "ms", "incl", "layering.apply_op"),
    ("continuation.plan_ms", "ms", "incl", "continuation.plan"),
    ("continuation.plan_steps", "count", "count", "continuation.plan_steps"),
    ("continuation.transform_ms", "ms", "incl", "continuation.transform"),
    ("continuation.total_matrix_ms", "ms", "incl", "continuation.total_matrix"),
    ("continuation.continue_ms", "ms", "incl", "continuation.continue"),
    ("planar.dual_ms", "ms", "incl", "planar.dual"),
]


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, job)
        self.stack = []  # open spans: [id, name, start, child time]
        self.next_id = 0
        self.job = None
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)

    def enter(self, name):
        self.calls[name] += 1
        self.next_id += 1
        self.stack.append([self.next_id, name, time.perf_counter(), 0.0])

    def exit(self):
        end = time.perf_counter()
        sid, name, start, child = self.stack.pop()
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        if all(s[1] != name for s in self.stack):
            self.incl[name] += dur
        self.self_time[name] += dur - child
        self.spans.append((sid, name, start, end,
                           parent[0] if parent else None, self.job))

    def wrap(self, fn, name, when=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(result)
            return result

        return traced

    def counting(self, fn, name):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, ga):
        """Patch graphalg's modules (already imported) in place."""
        modules = [m for n, m in sys.modules.items()
                   if n == "graphalg" or n.startswith("graphalg.")]

        def patch(original, replacement):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, replacement)

        def snf_bits(result):
            bits = max((abs(x).bit_length() for M in (result.U, result.V)
                        for row in M.data for x in row), default=0)
            key = "exact_algebra.snf.transform_bits"
            self.maxima[key] = max(self.maxima[key], bits)

        def plan_steps(plan):
            self.counts["continuation.plan_steps"] += len(plan.transforms)

        after = {"exact_algebra.snf": snf_bits, "continuation.plan": plan_steps}
        for module, attr, name in FUNCTIONS:
            original = getattr(getattr(ga, module), attr)
            patch(original, self.wrap(original, name, after=after.get(name)))

        ea = ga.exact_algebra
        EM = ea.ExactMatrix
        EM.__mul__ = self.wrap(EM.__mul__, "exact_algebra.matmul",
                               when=lambda args: isinstance(args[1], EM))
        EM.apply = self.wrap(EM.apply, "exact_algebra.matvec")
        MD = ea.ModuleDecomposition
        MD.from_cyclic_orders = staticmethod(
            self.wrap(MD.from_cyclic_orders, "exact_algebra.factor"))
        CP = ga.continuation.ContinuationPlan
        CP.total_matrix = self.wrap(CP.total_matrix, "continuation.total_matrix")
        PG = ga.partial_graph.PartialGraph
        PG.__init__ = self.counting(PG.__init__, "partial_graph.graphs_built")
        PG.star = self.counting(PG.star, "partial_graph.star.calls")

    def counts_snapshot(self):
        return dict(self.calls), dict(self.counts), dict(self.maxima)

    def restore_counts(self, snapshot):
        """Drop the counts of a job that was stopped: how far it got
        depends on the machine's speed, and counts must repeat exactly.
        Its time stays in the time metrics."""
        calls, counts, maxima = snapshot
        self.calls = defaultdict(int, calls)
        self.counts = defaultdict(int, counts)
        self.maxima = defaultdict(int, maxima)

    def metrics(self, rounds):
        """Per-layer metrics, per round of the job list."""
        out = {}
        for name, unit, how, key in PER_LAYER:
            if how == "incl":
                value = self.incl[key] * 1e3 / rounds
            elif how == "self":
                value = self.self_time[key] * 1e3 / rounds
            elif how == "calls":
                value = self.calls[key] / rounds
            elif how == "count":
                value = self.counts[key] / rounds
            else:
                value = self.maxima[key]
            if unit == "count" and float(value).is_integer():
                value = int(value)
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path, summary):
        """Spans, per-name totals and the run summary as JSON."""
        with open(path, "w") as fh:
            json.dump({
                "summary": summary,
                "calls": dict(self.calls),
                "inclusive_s": dict(self.incl),
                "self_s": dict(self.self_time),
                "counters": {**self.counts, **self.maxima},
                "span_fields": ["id", "name", "start", "end", "parent", "job"],
                "spans": self.spans,
            }, fh)
