"""Per-layer tracing of the library from the benchmark's side.

`Tracer.installed()` wraps every public function of each `limrec` module,
and the methods named in SPAN_METHODS, in a timed span, rebinding each
wrapped name in every module that imported it (so `limrec.cli.tree_canon`
and `limrec.treelogic.x_membership` are traced too).  The graph callbacks
in COUNTED, called millions of times, only count calls.  Spans stay in
memory until `write_spans`.  A span's self time is its duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter

MODULES = ("cli", "structures", "syntax", "evaluator", "treelogic", "intervalcanon")
SPAN_METHODS = (
    ("structures", "Structure", "parse"),
    ("evaluator", "EvalContext", "formula_graph"),
    ("evaluator", "EvalContext", "quotient_graph"),
    ("intervalcanon", "Graph", "subgraph"),
)
CALLBACK_CLASSES = (
    ("treelogic", "_IsoGadget"), ("treelogic", "_OrderGadget"), ("treelogic", "_CanonGraph"),
    ("evaluator", "FormulaGraph"), ("evaluator", "QuotientGraph"),
)
CALLBACKS = ("out_neighbours", "in_degree", "label_contains")
COUNTED = tuple((m, c, f) for m, c in CALLBACK_CLASSES for f in CALLBACKS) + (
    ("intervalcanon", "ColouredTree", "children"),
)

INTERVAL_PHASES = (
    "max_cliques", "possible_ends", "clique_preorder", "collapse_incomparables",
    "modular_partition", "canon_L", "decomposition_components", "build_modular_tree",
    "interval_model", "interval_canon",
)
TREE_FUNCTIONS = ("tree_canon", "tree_isomorphic", "tree_order_less", "coloured_compare")

class Tracer:
    def __init__(self, lib):
        self.lib = lib
        # span: [name, start, end, parent span index, item index, outermost of its name]
        self.spans = []
        self.stack = []
        self.open = Counter()
        self.counts = Counter()
        self.item_index = -1
        self.memo_entries = 0
        self.unravel_sizes = []
        self.graphs_seen = {}      # id -> FormulaGraph, within the current item
        self.lazy_graphs = {}      # the ones among them that compute edges on demand
        self.lazy_queries = set()  # (graph id, callback, vertex) on those
        self.edge_tests = 0
        self.vertex_sets = {"modular_partition": set(), "Graph.subgraph": set()}
        self.distinct = Counter()

    # --- item boundaries ------------------------------------------------

    def wrap_runner(self, runner):
        """Mark item boundaries: spans of one item share its index."""

        def run(item, d):
            self.item_index += 1
            try:
                return runner(item, d)
            finally:
                self._end_item()

        return run

    def _end_item(self):
        for key, sets in self.vertex_sets.items():
            self.distinct[key] += len(sets)
            sets.clear()
        for graph_id, _, _ in self.lazy_queries:
            self.edge_tests += self.lazy_graphs[graph_id].dom_size
        self.lazy_queries.clear()
        self.lazy_graphs.clear()
        self.graphs_seen.clear()

    # --- wrappers -------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        spans, stack, opened = self.spans, self.stack, self.open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item_index, not opened[name]]
            spans.append(span)
            stack.append(idx)
            opened[name] += 1
            state = before(args) if before else None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                opened[name] -= 1
            if after:
                after(args, result, state)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts, lazy = self.counts, self.lazy_graphs
        callback = name.rsplit(".", 1)[1]
        # a lazy FormulaGraph runs dom_size edge tests per new vertex asked
        edge_tests = name.startswith("evaluator.FormulaGraph.") and callback != "label_contains"

        @functools.wraps(fn)
        def wrapper(graph, *args):
            counts[name] += 1
            if edge_tests and lazy and id(graph) in lazy:
                self.lazy_queries.add((id(graph), callback, args[0]))
            return fn(graph, *args)

        return wrapper

    def _hooks(self, name):
        """(before, after) for spans whose counts come from arguments and
        return values."""
        if name == "evaluator.x_membership":
            def after(args, result, before):
                self.memo_entries += len(args[0].memo) - before
            return (lambda args: len(args[0].memo)), after
        if name == "evaluator.unravel":
            return None, lambda args, result, _: self.unravel_sizes.append(len(result))
        if name == "evaluator.EvalContext.formula_graph":
            def after(args, graph, _):
                if id(graph) not in self.graphs_seen:
                    self.graphs_seen[id(graph)] = graph
                    self.counts["formula_graph.built"] += 1
                    if graph.dom_size ** 2 <= args[0].edge_threshold:
                        self.edge_tests += graph.dom_size ** 2  # materialised at once
                    else:
                        self.lazy_graphs[id(graph)] = graph
            return None, after
        for key in self.vertex_sets:
            if name == f"intervalcanon.{key}":
                sets = self.vertex_sets[key]
                if key == "Graph.subgraph":
                    return (lambda args: sets.add(frozenset(args[1]))), None
                return (lambda args: sets.add(frozenset(args[0].vertices))), None
        return None, None

    @contextlib.contextmanager
    def installed(self):
        """Wrap the library while the block runs, then restore it."""
        restore = []
        modules = {m: self.lib[m] for m in MODULES}
        everywhere = [mod for name, mod in sys.modules.items()
                      if name == "limrec" or name.startswith("limrec.")]
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped = self._span(name, fn, *self._hooks(name))
                for other in everywhere:
                    for other_attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, other_attr, wrapped)
                            restore.append((other, other_attr, fn))
        for short, cls_name, attr in SPAN_METHODS + COUNTED:
            cls = getattr(modules[short], cls_name, None)
            if cls is None or attr not in vars(cls):
                continue
            original = vars(cls)[attr]
            name = f"{short}.{cls_name}.{attr}"
            if (short, cls_name, attr) in COUNTED:
                wrapped = self._counter(name, original)
            elif isinstance(original, classmethod):
                wrapped = classmethod(self._span(name, original.__func__, *self._hooks(name)))
            else:
                wrapped = self._span(name, original, *self._hooks(name))
            setattr(cls, attr, wrapped)
            restore.append((cls, attr, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    # --- results --------------------------------------------------------

    def aggregates(self):
        """Per span name: calls, self_s and total_s (outermost calls only)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        agg = {}
        for i, (name, start, end, _, _, outer) in enumerate(self.spans):
            a = agg.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            a["calls"] += 1
            a["self_s"] += end - start - child_time[i]
            if outer:
                a["total_s"] += end - start
        return agg

    def metrics(self):
        """Every per-layer metric except the trace.* ones, as name -> value."""
        agg = self.aggregates()

        def stat(name, key):
            return agg.get(name, {}).get(key, 0)

        nested = Counter(
            (self.spans[parent][0], name)
            for name, _, _, parent, _, _ in self.spans if parent >= 0
        )
        values = {}
        for f in INTERVAL_PHASES:
            for key in ("calls", "self_s"):
                values[f"intervalcanon.{f}.{key}"] = stat(f"intervalcanon.{f}", key)
        for f in TREE_FUNCTIONS:
            for key in ("calls", "self_s"):
                values[f"treelogic.{f}.{key}"] = stat(f"treelogic.{f}", key)

        def ratio(a, b):
            return a / b if b else 0.0

        subgraph = "intervalcanon.Graph.subgraph"
        values.update({
            "intervalcanon.clique_preorder.per_possible_ends": ratio(
                nested[("intervalcanon.possible_ends", "intervalcanon.clique_preorder")],
                stat("intervalcanon.possible_ends", "calls")),
            "intervalcanon.modular_partition.repeat_ratio": ratio(
                stat("intervalcanon.modular_partition", "calls"),
                self.distinct["modular_partition"]),
            "intervalcanon.Graph.subgraph.calls": stat(subgraph, "calls"),
            "intervalcanon.Graph.subgraph.total_s": stat(subgraph, "total_s"),
            "intervalcanon.Graph.subgraph.repeat_ratio": ratio(
                stat(subgraph, "calls"), self.distinct["Graph.subgraph"]),
            "intervalcanon.ColouredTree.children.calls":
                self.counts["intervalcanon.ColouredTree.children"],
            "treelogic.tree_canon.queries":
                nested[("treelogic.tree_canon", "evaluator.x_membership")],
            "treelogic.tree_isomorphic.gadget_queries":
                nested[("treelogic.tree_isomorphic", "evaluator.x_membership")],
            "treelogic.tree_order_less.gadget_queries":
                nested[("treelogic.tree_order_less", "evaluator.x_membership")],
        })
        for m, c in CALLBACK_CLASSES:
            for f in CALLBACKS:
                values[f"{m}.{c}.{f}.calls"] = self.counts[f"{m}.{c}.{f}"]
        values.update({
            "evaluator.x_membership.calls": stat("evaluator.x_membership", "calls"),
            "evaluator.x_membership.self_s": stat("evaluator.x_membership", "self_s"),
            "evaluator.x_membership.memo_entries": self.memo_entries,
            "evaluator.evaluate.self_s": stat("evaluator.evaluate", "self_s"),
            "evaluator.formula_graph.calls": stat("evaluator.EvalContext.formula_graph", "calls"),
            "evaluator.formula_graph.built": self.counts["formula_graph.built"],
            "evaluator.formula_graph.edge_tests": self.edge_tests,
            "evaluator.x_membership_streaming.self_s":
                stat("evaluator.x_membership_streaming", "self_s"),
            "evaluator.unravel.nodes_max": max(self.unravel_sizes, default=0),
            "evaluator.unravel.nodes_sum": sum(self.unravel_sizes),
            "evaluator.quotient_graph.total_s":
                stat("evaluator.EvalContext.quotient_graph", "total_s"),
            "evaluator.apply_transduction.total_s": stat("evaluator.apply_transduction", "total_s"),
            "structures.Structure.parse.total_s": stat("structures.Structure.parse", "total_s"),
            "syntax.parse_formula.total_s": stat("syntax.parse_formula", "total_s"),
            "syntax.expand_dtc.total_s": stat("syntax.expand_dtc", "total_s"),
            "cli.main.self_s": stat("cli.main", "self_s"),
        })
        return values

    def write_spans(self, path, item_names):
        """One line per span: item, name, start and end (s from the first
        span), parent span index."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            out.write("index\titem\tname\tstart_s\tend_s\tparent\n")
            for i, (name, start, end, parent, item, _) in enumerate(self.spans):
                out.write(f"{i}\t{item_names[item]}\t{name}\t{start - origin:.6f}\t"
                          f"{end - origin:.6f}\t{parent}\n")
