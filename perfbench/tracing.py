"""Timing wrappers around graphfib's public functions, from outside the program.

``Tracer.install(modules)`` replaces every binding of each traced function:
the defining module's attribute and every module that imported the function
by name (``fibrations.canonical_key``, ``cli.build_T``, ...).  Calls inside
the package resolve through those module globals, so internal calls are
timed as well.  Each call becomes a span ``(task, span, parent, name, start,
end)`` kept in memory; ``write_spans`` saves them when the run ends.

A span's self time is its duration minus the durations of its direct child
spans.  Counters are taken from arguments and results at the same
boundaries.
"""

from __future__ import annotations

import csv
import gzip
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  The span name is the metric prefix.
TRACED = (
    ("cli", "main", "cli.main"),
    ("graphs", "enumerate_homomorphisms", "graphs.enumerate_homomorphisms"),
    ("graphs", "canonical_form", "graphs.canonical_form"),
    ("graphs", "f_union", "graphs.f_union"),
    ("graphs", "enumerate_overlaps", "graphs.enumerate_overlaps"),
    ("graphs", "quotient", "graphs.quotient"),
    ("graphs", "automorphisms", "graphs.automorphisms"),
    ("graphs", "graph_from_json", "graphs.graph_from_json"),
    ("partitions", "enumerate_partitions", "partitions.enumerate_partitions"),
    ("partitions", "ker", "partitions.ker"),
    ("diagrams", "compose", "diagrams.compose"),
    ("diagrams", "bl_f_union", "diagrams.bl_f_union"),
    ("diagrams", "bl_f_compose", "diagrams.bl_f_compose"),
    ("diagrams", "diagram_from_json", "diagrams.diagram_from_json"),
    ("tensors", "build_T", "tensors.build_T"),
    ("tensors", "build_That", "tensors.build_That"),
    ("tensors", "tensor_product", "tensors.tensor_product"),
    ("tensors", "compose", "tensors.compose"),
    ("tensors", "tensor_add", "tensors.tensor_add"),
    ("tensors", "compare_tensors", "tensors.compare_tensors"),
    ("tensors", "exact_rank", "tensors.exact_rank"),
    ("freeprod", "member", "freeprod.member"),
    ("freeprod", "coset_table", "freeprod.coset_table"),
    ("fibrations", "closure_graphs", "fibrations.closure_graphs"),
    ("fibrations", "fiber_generators", "fibrations.fiber_generators"),
    ("fibrations", "is_fiber", "fibrations.is_fiber"),
    ("repspaces", "PermutationGroup.__init__", "repspaces.PermutationGroup.init"),
    ("repspaces", "orbits", "repspaces.orbits"),
    ("repspaces", "build_That_H", "repspaces.build_That_H"),
    ("repspaces", "burnside_dim", "repspaces.burnside_dim"),
    ("repspaces", "check_invariance", "repspaces.check_invariance"),
    ("repspaces", "dim_report", "repspaces.dim_report"),
    ("repspaces", "verify_THpart", "repspaces.verify_THpart"),
)

STRATEGIES = ("racg", "finite-model", "bounded-bfs")

# Counters the hooks below keep, besides span calls and self times.
COUNTERS = frozenset(
    (
        "graphs.enumerate_homomorphisms.maps",
        "graphs.enumerate_overlaps.overlaps",
        "partitions.enumerate_partitions.partitions",
        "tensors.build_T.entries",
        "tensors.build_That.entries",
        "tensors.exact_rank.cells",
        "freeprod.member.yes",
        "freeprod.member.no",
        "freeprod.member.unknown",
        "freeprod.coset_table.cosets",
        "fibrations.closure_graphs.members",
        "fibrations.fiber_generators.words_kept",
        "repspaces.orbits.orbits",
    )
    + tuple(f"freeprod.member.strategy.{s}" for s in STRATEGIES)
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.task = -1
        self._stack = []
        self._next_id = 0
        self._seen_graphs = set()
        self._restore = []
        self._modules = None

    # -- installing -------------------------------------------------------

    def install(self, modules):
        """Wrap every binding of each traced function in ``modules``."""
        self._modules = modules
        hooks = {
            "graphs.enumerate_homomorphisms": self._count_len("graphs.enumerate_homomorphisms.maps"),
            "graphs.canonical_form": self._canonical_form,
            "graphs.enumerate_overlaps": self._count_len("graphs.enumerate_overlaps.overlaps"),
            "partitions.enumerate_partitions": self._count_len("partitions.enumerate_partitions.partitions"),
            "tensors.build_T": self._entries("tensors.build_T.entries"),
            "tensors.build_That": self._entries("tensors.build_That.entries"),
            "freeprod.member": self._member,
            "freeprod.coset_table": self._coset_table,
            "fibrations.closure_graphs": self._closure_graphs,
            "fibrations.fiber_generators": self._count_len("fibrations.fiber_generators.words_kept"),
            "repspaces.orbits": self._count_len("repspaces.orbits.orbits"),
        }
        pre_hooks = {
            "tensors.exact_rank": self._exact_rank,
            "fibrations.closure_graphs": lambda args: self.calls["graphs.f_union"],
        }
        for modname, attr, name in TRACED:
            module = modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._set(owner, meth, self._wrap(name, original, pre_hooks.get(name), hooks.get(name)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, pre_hooks.get(name), hooks.get(name))
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore = []

    def start_task(self, index):
        self.task = index
        self._seen_graphs = set()

    def _wrap(self, name, fn, pre, post):
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = pre(args) if pre else None
            parent = stack[-1][0] if stack else -1
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((self.task, span_id, parent, name, start, end))
                calls[name] += 1
                self_s[name] += duration - frame[1]
            if post:
                post(args, result, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters ---------------------------------------------------------

    def _count_len(self, counter):
        def post(args, result, state):
            self.counts[counter] += len(result)
        return post

    def _entries(self, counter):
        def post(args, result, state):
            self.counts[counter] += len(result.entries)
        return post

    def _canonical_form(self, args, result, state):
        g = args[0]
        key = (g.n, g.edges)
        if key in self._seen_graphs:
            self.counts["graphs.canonical_form.repeats"] += 1
        self._seen_graphs.add(key)

    def _exact_rank(self, args):
        rows = args[0]
        self.counts["tensors.exact_rank.cells"] += len(rows) * (len(rows[0]) if rows else 0)

    def _member(self, args, result, state):
        """Count the verdict and attribute the strategy that produced it.

        Under ``auto`` the strategy is recovered with the public
        ``racg_eligible`` and ``quotient_order_if_finite``; the coset table
        the latter needs is already in the cache ``member`` filled.
        """
        freeprod = self._modules["freeprod"]
        word, spec = args[0], args[1]
        self.counts[f"freeprod.member.{result.value}"] += 1
        if not freeprod.reduce_word(tuple(word)):
            return
        strategy = spec.strategy
        if strategy == "auto":
            if freeprod.racg_eligible(spec.generators):
                strategy = "racg"
            elif freeprod.quotient_order_if_finite(spec) is not None:
                strategy = "finite-model"
            else:
                strategy = "bounded-bfs"
        self.counts[f"freeprod.member.strategy.{strategy}"] += 1

    def _coset_table(self, args, result, state):
        if result is None:
            self.counts["freeprod.coset_table.overflows"] += 1
        else:
            self.counts["freeprod.coset_table.cosets"] += len(result)

    def _closure_graphs(self, args, result, unions_before):
        unions = self.calls["graphs.f_union"] - unions_before
        if unions:  # a call that computed the closure rather than reusing it
            self.counts["fibrations.closure_graphs.members"] += len(result)
            self.counts["fibrations.closure_graphs.unions"] += unions

    # -- results ----------------------------------------------------------

    def metrics(self, names, out_bytes, overhead_ratio):
        """The per-layer metrics called ``names``.

        A name is a span name plus ``.calls`` or ``.self_s``, a counter, or
        one of the ratios below.
        """
        derived = {
            "cli.out_bytes": out_bytes,
            "trace.overhead_ratio": overhead_ratio,
            "graphs.canonical_form.repeat_ratio": _ratio(
                self.counts["graphs.canonical_form.repeats"], self.calls["graphs.canonical_form"]),
            "freeprod.coset_table.overflow_ratio": _ratio(
                self.counts["freeprod.coset_table.overflows"], self.calls["freeprod.coset_table"]),
            "fibrations.closure_graphs.yield_ratio": _ratio(
                self.counts["fibrations.closure_graphs.members"], self.counts["fibrations.closure_graphs.unions"]),
        }
        spans = {name for _, _, name in TRACED}
        values = {}
        for name in names:
            prefix, _, what = name.rpartition(".")
            if name in derived:
                values[name] = derived[name]
            elif prefix in spans and what == "calls":
                values[name] = self.calls[prefix]
            elif prefix in spans and what == "self_s":
                values[name] = self.self_s[prefix]
            elif name in COUNTERS:
                values[name] = self.counts[name]
            else:
                raise ValueError(f"no per-layer metric named {name!r}")
        return values

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("task", "span", "parent", "name", "start_s", "end_s"))
            out.writerows(self.spans)


def _ratio(num, den):
    return num / den if den else 0.0
