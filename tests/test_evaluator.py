import ast
import collections
import contextlib
import importlib.util
import inspect
import itertools
import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import limrec
from limrec import evaluator
from limrec.errors import DomainError, FormulaError, LimrecError
from limrec.evaluator import (
    EvalContext, LabelledGraph, Transduction, apply_transduction, evaluate, x_membership,
    x_membership_streaming,
)
from limrec.structures import (
    GRAPH_VOCAB, Structure, generate_layered_graph, generate_random_circuit,
)
from limrec.syntax import (
    STRUCT, And, Atom, EqVar, Exists, Forall, LeqNum, Lrec, LrecEq, Not, Or, expand_dtc,
    free_variables, nvar, parse_formula, pretty, substitute, svar, validate,
)
from limrec.treelogic import CIRCUIT_FORMULA, circuit_value

from .helpers import (
    ExplicitGraph, RecordingGraph, circuit_value_oracle, lrec_membership, not_chain,
    reference_unravel, reference_x_membership, streaming_iso_query_peak,
    streaming_like_reference,
)
from .test_syntax import _formulas
from .test_treelogic import _canon_graph_trees

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def circuit():
    return Structure.parse((DATA / "circuit_small.struct").read_text())


@pytest.fixture(scope="module")
def circuit_formula():
    return parse_formula((DATA / "circuit_eval.formula").read_text())


def _lrec_node(formula):
    """Extract the single lrec node from the parsed circuit formula."""
    f = formula
    while not isinstance(f, Lrec):
        f = f.sub if hasattr(f, "sub") else f.parts[0]
    return f


def elem(circuit, name):
    return circuit.element_index(name)


def test_circuit_example_true(circuit, circuit_formula):
    alpha = {svar("z"): elem(circuit, "a")}
    assert evaluate(circuit, alpha, circuit_formula) is True
    assert evaluate(circuit, alpha, circuit_formula, engine="stream") is True
    assert evaluate(circuit, alpha, circuit_formula, engine="both") is True


def test_circuit_x_facts(circuit, circuit_formula):
    node = _lrec_node(circuit_formula)
    ctx = EvalContext(circuit)
    alpha = {svar("z"): elem(circuit, "a")}

    def member(name, ell):
        return lrec_membership(circuit, alpha, node, (elem(circuit, name),), ell, ctx=ctx)

    for name in "cehjk":
        assert member(name, 1)
    assert not member("f", 1)
    assert not member("i", 1)
    assert member("b", 2)
    for ell in range(1, 12):
        assert not member("g", ell)
    assert member("d", 3)
    assert member("a", 4)


def test_tautology_any_structure(circuit):
    f = parse_formula("forall x x = x")
    assert evaluate(circuit, {}, f)


def test_count_self_loops():
    g = Structure.parse("vocab E/2\nuniverse 3\nE 0 1\nE 1 2\n")
    f = parse_formula("count(x ; E(x, x)) = #p")
    assert evaluate(g, {nvar("p"): 0}, f)
    assert not evaluate(g, {nvar("p"): 1}, f)


def test_unbound_variable_rejected(circuit, circuit_formula):
    with pytest.raises(DomainError):
        evaluate(circuit, {}, circuit_formula)
    with pytest.raises(DomainError):
        evaluate(circuit, {svar("z"): 99}, circuit_formula)


def test_unbound_variables_are_all_named_in_order():
    g = Structure.parse("vocab E/2\nuniverse 2\nE 0 1\n")
    f = parse_formula("E(y, x) and #x <= #b and exists z E(z, a)")
    with pytest.raises(DomainError, match=r"^unbound free variables a, #b, #x, x, y$"):
        evaluate(g, {}, f)
    with pytest.raises(DomainError, match=r"^unbound free variable #x$"):
        evaluate(g, {svar("a"): 0, nvar("b"): 0, svar("x"): 0, svar("y"): 1}, f)


def test_non_monotonicity_witness():
    # single-edge graph, label formula "p = 0": (a,1) in X but (a,2) not
    g = Structure.parse("vocab E/2\nuniverse 2\nE 0 1\n")
    node = Lrec(
        (svar("u"),), (svar("v"),), (nvar("p"),),
        Atom("E", (svar("u"), svar("v"))),
        Forall(nvar("q"), LeqNum(nvar("p"), nvar("q"))),
        (svar("u"),), (nvar("p"),),
    )
    assert lrec_membership(g, {}, node, (0,), 1)
    assert not lrec_membership(g, {}, node, (0,), 2)
    assert lrec_membership(g, {}, node, (0,), 1, engine=x_membership_streaming)
    assert not lrec_membership(g, {}, node, (0,), 2, engine=x_membership_streaming)


def _random_graph(rng, n):
    out = {}
    labels = {}
    for v in range(n):
        outs = tuple(sorted(w for w in range(n) if w != v and rng.random() < 0.4))
        out[(v,)] = tuple((w,) for w in outs)
        labels[(v,)] = {m for m in range(n + 2) if rng.random() < 0.3}
    return ExplicitGraph(out, labels)


def test_engines_agree_on_random_graphs():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(1, 6)
        g = _random_graph(rng, n)
        for v in range(n):
            for ell in range(0, 21):
                assert x_membership(g, (v,), ell) == streaming_like_reference(g, (v,), ell)


def test_unravelling_matches_claim():
    # every tree node's Y-verdict equals X-membership of its (vertex, resource)
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 5)
        g = _random_graph(rng, n)
        root = (rng.randrange(n),)
        ell = rng.randint(0, 15)
        tree = reference_unravel(g, root, ell)
        for i in range(len(tree)):
            in_x = x_membership(g, tree.vertices[i], tree.resources[i])
            accepted = (
                not tree.fail(i)
                and g.label_contains(
                    tree.vertices[i],
                    sum(
                        1
                        for j in tree.children[i]
                        if x_membership(g, tree.vertices[j], tree.resources[j])
                    ),
                )
            )
            assert in_x == accepted


def test_leaf_with_zero_label_streaming():
    g = ExplicitGraph({(0,): ()}, {(0,): {0}})
    assert x_membership_streaming(g, (0,), 1)
    assert x_membership(g, (0,), 1)
    assert not x_membership(g, (0,), 0)
    # no resource left, none asked: both engines reject without a label
    for ell in (0, -1):
        assert not x_membership_streaming(g, (0,), ell)
        assert not x_membership(g, (0,), ell)


def test_engines_agree_on_random_formulas():
    # random formula shapes, including nested recursion operators, on
    # random small structures: the two engines always agree
    from hypothesis import given, settings
    from .test_syntax import _formulas
    from limrec.syntax import expand_dtc, free_variables
    import hypothesis.strategies as st

    @given(_formulas(), st.integers(1, 3), st.integers(0, 10 ** 6))
    @settings(max_examples=150, deadline=None)
    def check(formula, n, edge_bits):
        pairs = [(a, b) for a in range(n) for b in range(n)]
        edges = {pairs[i] for i in range(len(pairs)) if edge_bits >> i & 1}
        rels = {"E": edges, "P": {(v,) for v in range(n) if edge_bits >> (n * n + v) & 1}}
        vocab = Vocabulary((("E", 2), ("P", 1)))
        structure = Structure(vocab, n, rels)
        alpha = {v: 0 for v in free_variables(formula)}
        memo = evaluate(structure, alpha, formula, engine="memo")
        stream = evaluate(structure, alpha, formula, engine="stream")
        assert memo == stream
        assert evaluate(structure, alpha, formula, engine="both") == memo

    check()


from limrec.structures import Vocabulary


def test_nested_recursions_run_on_the_query_engine(monkeypatch):
    # an lrec inside the edge formula of another runs on the engine of the
    # query that builds the outer graph, so "both" compares them there too
    path = Structure(GRAPH_VOCAB, 4, {"E": {(0, 1), (1, 2), (2, 3)}})
    formula = parse_formula(
        "[lrec x, y, #p : E(x, y) and [lrec u, v, #q : E(u, v) ; #q = 0](y, #r) ;"
        " #p = 0](z, #r)"
    )
    calls = []
    streaming = evaluator.x_membership_streaming

    def counting(graph, vertex, resource):
        calls.append(graph.node)
        return streaming(graph, vertex, resource)

    monkeypatch.setattr(evaluator, "x_membership_streaming", counting)
    alpha = {svar("z"): 0, nvar("r"): 4}
    verdicts = {}
    for engine in ("memo", "stream", "both"):
        calls.clear()
        ctx = EvalContext(path)
        verdicts[engine] = evaluate(path, alpha, formula, engine=engine, ctx=ctx)
        nodes = {id(node) for node in calls}
        assert len(nodes) == (0 if engine == "memo" else 2), engine
    assert len(set(verdicts.values())) == 1
    # a context keeps one graph per engine, each compiled for its engine
    ctx = EvalContext(path)
    node = _lrec_node(formula)
    assert ctx.formula_graph(node, alpha, "memo") is not ctx.formula_graph(node, alpha, "both")
    assert ctx.formula_graph(node, alpha, "both") is ctx.formula_graph(node, alpha, "both")




# --- dtc ------------------------------------------------------------------


def _det_path_oracle(n, edges, s, t):
    """Follow unique out-neighbours from s; report whether t is reached."""
    cur = s
    seen = set()
    while True:
        if cur == t:
            return True
        if cur in seen:
            return False
        seen.add(cur)
        outs = [b for (a, b) in edges if a == cur]
        if len(outs) != 1:
            return False
        cur = outs[0]


def test_dtc_figure_graph():
    # c -> v2 -> v1 -> d, e -> v1, x -> v1, x -> d  (deterministic path c..d)
    s = Structure.parse(
        "vocab E/2\nuniverse 6\nnames c v2 v1 d e x\n"
        "E c v2\nE v2 v1\nE v1 d\nE e v1\nE x v1\nE x d\n"
    )
    f = parse_formula("[dtc x, y : E(x, y)](s, t)")
    assert evaluate(s, {svar("s"): 0, svar("t"): 3}, f) is True
    assert evaluate(s, {svar("s"): 4, svar("t"): 0}, f) is False


def test_dtc_matches_oracle_exhaustive_small():
    f = parse_formula("[dtc x, y : E(x, y)](s, t)")
    for n in (2, 3):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        for bits in range(2 ** len(pairs)):
            edges = {pairs[i] for i in range(len(pairs)) if bits >> i & 1}
            g = Structure(GRAPH_VOCAB, n, {"E": edges})
            ctx = EvalContext(g)
            for s in range(n):
                for t in range(n):
                    got = evaluate(
                        g, {svar("s"): s, svar("t"): t}, f, ctx=ctx
                    )
                    assert got == _det_path_oracle(n, edges, s, t), (edges, s, t)


def test_dtc_matches_oracle_sampled_five_vertices():
    f = parse_formula("[dtc x, y : E(x, y)](s, t)")
    rng = random.Random(55)
    n = 5
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    for _ in range(400):
        edges = {p for p in pairs if rng.random() < 0.3}
        g = Structure(GRAPH_VOCAB, n, {"E": edges})
        ctx = EvalContext(g)
        for s in range(n):
            for t in range(n):
                got = evaluate(g, {svar("s"): s, svar("t"): t}, f, ctx=ctx)
                assert got == _det_path_oracle(n, edges, s, t), (edges, s, t)


# --- lrec= ----------------------------------------------------------------


def reach_formula():
    # undirected reachability: equivalence from E, empty edge graph,
    # label checks the target is in the class
    return LrecEq(
        (svar("x"),), (svar("y"),), (nvar("p"),),
        Atom("E", (svar("x"), svar("y"))),
        Not(EqVar(svar("x"), svar("x"))),
        EqVar(svar("x"), svar("t")),
        (svar("s"),), (nvar("r"),),
    )


def _components(n, edges):
    comp = list(range(n))
    for a, b in edges:
        ra, rb = comp[a], comp[b]
        if ra != rb:
            for i in range(n):
                if comp[i] == rb:
                    comp[i] = ra
    return comp


def test_lrec_eq_reachability_small():
    # two components: 0-1-2 and 3-4
    edges = {(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)}
    g = Structure(GRAPH_VOCAB, 5, {"E": edges})
    f = reach_formula()
    ctx = EvalContext(g)
    for s in range(5):
        for t in range(5):
            alpha = {svar("s"): s, svar("t"): t, nvar("r"): 1}
            expected = (s < 3) == (t < 3)
            assert evaluate(g, alpha, f, ctx=ctx) == expected


def test_lrec_eq_membership_direct():
    edges = {(0, 1), (1, 0)}
    g = Structure(GRAPH_VOCAB, 3, {"E": edges})
    f = reach_formula()
    alpha = {svar("t"): 1}
    assert lrec_membership(g, alpha, f, (0,), 1)
    assert not lrec_membership(g, alpha, f, (2,), 1)
    # reflexivity: s = t in a singleton component
    alpha = {svar("t"): 2}
    assert lrec_membership(g, alpha, f, (2,), 1)


def test_lrec_eq_random_graphs_match_search():
    rng = random.Random(99)
    f = reach_formula()
    for _ in range(30):
        n = rng.randint(2, 8)
        edges = set()
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.25:
                    edges.add((a, b))
                    edges.add((b, a))
        g = Structure(GRAPH_VOCAB, n, {"E": edges})
        comp = _components(n, {(a, b) for a, b in edges if a < b})
        ctx = EvalContext(g)
        for s in range(n):
            for t in range(n):
                alpha = {svar("s"): s, svar("t"): t, nvar("r"): 1}
                assert evaluate(g, alpha, f, ctx=ctx) == (comp[s] == comp[t])


@pytest.mark.parametrize("on_demand", [False, True])
def test_lreceq_with_empty_equivalence_is_lrec(monkeypatch, on_demand):
    # An lreceq node whose phi_= relates no pair has the identity quotient,
    # so it decides what the lrec node with the same edges and labels does;
    # with the threshold at 0 the lrec graph is built on demand instead.
    if on_demand:
        monkeypatch.setattr(evaluator, "EDGE_MATERIALIZE_THRESHOLD", 0)
    edge_texts = ("E(x, y)", "E(y, x) and not x = y", "P(x) or E(x, y)")
    label_texts = ("P(x) or count(y ; E(x, y)) = #p", "x = s", "not #p = 0")
    rng = random.Random(8)
    for n in (1, 2, 3, 1, 2, 3):
        pairs = [(a, b) for a in range(n) for b in range(n)]
        edges = {pair for pair in pairs if rng.random() < 0.5}
        marked = {(v,) for v in range(n) if rng.random() < 0.5}
        structure = Structure(Vocabulary((("E", 2), ("P", 1))), n, {"E": edges, "P": marked})
        for edge, label in itertools.product(edge_texts, label_texts):
            lrec = parse_formula(f"[lrec x, y, #p : {edge} ; {label}](z, #r)")
            lreceq = parse_formula(f"[lreceq x, y, #p : not x = x ; {edge} ; {label}](z, #r)")
            ctx = EvalContext(structure)
            for z, r, s in itertools.product(range(n), range(n + 1), range(n)):
                alpha = {svar("z"): z, nvar("r"): r, svar("s"): s}
                for engine in ("memo", "stream"):
                    assert evaluate(structure, alpha, lreceq, engine, ctx=ctx) == evaluate(
                        structure, alpha, lrec, engine, ctx=ctx
                    ), (structure, edge, label, alpha, engine)
            sweeps_in_degrees = ctx.formula_graph(lrec, {svar("s"): 0})._sweep
            assert sweeps_in_degrees != on_demand


# --- transductions ---------------------------------------------------------


def layer_transduction():
    x, y, z = svar("x"), svar("y"), svar("z")
    ex_z = Atom("E", (x, z))
    ey_z = Atom("E", (y, z))
    ez_x = Atom("E", (z, x))
    ez_y = Atom("E", (z, y))
    same_nbhd = Forall(
        z,
        And((
            Or((Not(ex_z), ey_z)), Or((Not(ey_z), ex_z)),
            Or((Not(ez_x), ez_y)), Or((Not(ez_y), ez_x)),
        )),
    )
    return Transduction(
        u=(x,), v=(y,),
        theta_v=EqVar(x, x),
        theta_approx=same_nbhd,
        relations=(("E", Atom("E", (x, y)), ((x,), (y,))),),
    )


def test_identity_transduction():
    g = Structure.parse("vocab E/2\nuniverse 3\nE 0 1\nE 1 2\n")
    x, y = svar("x"), svar("y")
    theta = Transduction(
        u=(x,), v=(y,),
        theta_v=EqVar(x, x),
        theta_approx=EqVar(x, y),
        relations=(("E", Atom("E", (x, y)), ((x,), (y,))),),
    )
    out = apply_transduction(theta, g)
    assert out.universe_size == 3
    assert out.rel("E") == g.rel("E")


def _is_two_disjoint_paths(structure, n):
    edges = structure.rel("E")
    if structure.universe_size != 2 * n or len(edges) != 2 * (n - 1):
        return False
    outs = {}
    ins = {}
    for a, b in edges:
        outs.setdefault(a, []).append(b)
        ins.setdefault(b, []).append(a)
    if any(len(v) != 1 for v in outs.values()) or any(len(v) != 1 for v in ins.values()):
        return False
    starts = [v for v in range(structure.universe_size) if v not in ins]
    if len(starts) != 2:
        return False
    for start in starts:
        length = 1
        cur = start
        while cur in outs:
            cur = outs[cur][0]
            length += 1
        if length != n:
            return False
    return True


def test_layer_transduction_on_g4():
    g = generate_layered_graph(4)
    out = apply_transduction(layer_transduction(), g)
    assert out.universe_size == 8
    assert len(out.rel("E")) == 6
    assert _is_two_disjoint_paths(out, 4)


def test_transduction_relation_may_use_dtc():
    rng = random.Random(3)
    n = 6
    edges = {(a, rng.randrange(n)) for a in range(n)} | {(0, 3)}
    g = Structure(GRAPH_VOCAB, n, {"E": edges})
    x, y = svar("x"), svar("y")
    reach = parse_formula("[dtc a, b : E(a, b)](x, y)")
    theta = Transduction(
        u=(x,), v=(y,),
        theta_v=EqVar(x, x),
        theta_approx=EqVar(x, y),
        relations=(("R", reach, ((x,), (y,))),),
    )
    expected = {(s, t) for s in range(n) for t in range(n) if evaluate(g, {x: s, y: t}, reach)}
    assert 0 < len(expected) < n * n
    assert apply_transduction(theta, g).rel("R") == expected


def test_transduction_validates_tuples():
    from limrec.errors import FormulaError

    x, y = svar("x"), svar("y")
    with pytest.raises(FormulaError):
        Transduction(
            u=(x,), v=(y, y),
            theta_v=EqVar(x, x), theta_approx=EqVar(x, y),
            relations=(),
        )
    with pytest.raises(FormulaError):
        Transduction(
            u=(x,), v=(y,),
            theta_v=EqVar(x, x), theta_approx=EqVar(x, y),
            relations=(("E", Atom("E", (x, y)), ((x,), (nvar("p"), nvar("q")))),),
        )


@pytest.mark.parametrize("field, formula", [
    ("theta_v", "E(x, w)"),
    ("theta_approx", "E(x, y) and E(y, w)"),
    ("relations", "E(x, y) and P(w)"),
])
def test_transduction_rejects_undeclared_free_variables(field, formula):
    from limrec.errors import FormulaError

    x, y = svar("x"), svar("y")
    fields = dict(
        u=(x,), v=(y,), theta_v=EqVar(x, x), theta_approx=EqVar(x, y),
        relations=(("E", Atom("E", (x, y)), ((x,), (y,))),),
    )
    if field == "relations":
        fields[field] = (("E", parse_formula(formula), ((x,), (y,))),)
    else:
        fields[field] = parse_formula(formula)
    with pytest.raises(FormulaError, match="undeclared free variable w in"):
        Transduction(**fields)


def test_atom_with_the_wrong_argument_count_is_rejected():
    structure = Structure(GRAPH_VOCAB, 2, {"E": {(0, 1)}})
    x = svar("x")
    for text in ("exists x E(x)", "exists x E(x, x, x)", "[lrec x, y, #p : E(x) ; x = x](x, #r)"):
        formula = parse_formula(text)
        for engine in ("memo", "stream"):
            with pytest.raises(FormulaError, match="relation E has arity 2"):
                evaluate(structure, {x: 0, nvar("r"): 1}, formula, engine=engine)


def test_transduction_undefined():
    g = Structure.parse("vocab E/2\nuniverse 2\nE 0 1\n")
    x, y = svar("x"), svar("y")
    theta = Transduction(
        u=(x,), v=(y,),
        theta_v=Not(EqVar(x, x)),
        theta_approx=EqVar(x, y),
        relations=(("E", Atom("E", (x, y)), ((x,), (y,))),),
    )
    with pytest.raises(DomainError):
        apply_transduction(theta, g)


# --- engine invariants and the on-demand recursion graph -------------------


class _ZeroInDegreeGraph(LabelledGraph):
    """Vertex 0 has an edge to vertex 1, which reports in-degree 0."""

    def out_neighbours(self, vertex):
        return (1,) if vertex == 0 else ()

    def in_degree(self, vertex):
        return 0

    def label_contains(self, vertex, count):
        return count == 0


def test_engines_reject_an_edge_target_without_incoming_edges():
    with pytest.raises(LimrecError, match="in-degree 0"):
        x_membership(_ZeroInDegreeGraph(), 0, 5)
    with pytest.raises(LimrecError, match="in-degree 0"):
        x_membership_streaming(_ZeroInDegreeGraph(), 0, 5)


def test_streaming_engine_stores_pairs_not_the_unravelling():
    # the n=31 iso query unravels into |W| = 108,307 nodes over 695
    # (vertex, resource) pairs; storing W itself peaked at 28 MB
    verdict, memo_verdict, peak = streaming_iso_query_peak(31)
    assert verdict is memo_verdict is True
    assert peak < 5 * 2 ** 20


class _PrunedGraph(LabelledGraph):
    """Vertex 0 has an empty label, vertex 1 least count 5 and children 2
    and 3; nothing else about them may be asked."""

    def out_neighbours(self, vertex):
        if vertex == 1:
            return (2, 3)
        raise AssertionError(f"out_neighbours({vertex!r}) asked")

    def in_degree(self, vertex):
        raise AssertionError(f"in_degree({vertex!r}) asked")

    def label_contains(self, vertex, count):
        raise AssertionError(f"label_contains({vertex!r}, {count}) asked")

    def label_bounds(self, vertex):
        return {0: None, 1: (5, 9)}[vertex]


def test_memo_engine_decides_an_empty_label_without_building_edges():
    graph = _PrunedGraph()
    assert x_membership(graph, 0, 5) is False
    assert graph.memo == {(0, 5): False}


def test_memo_engine_skips_children_when_the_least_count_exceeds_the_out_degree():
    graph = _PrunedGraph()
    assert x_membership(graph, 1, 5) is False
    assert graph.memo == {(1, 5): False}


class _SettleGraph(LabelledGraph):
    """Vertex 0 has the given label bounds and children 1, 2 and 3 of
    in-degree 1.  Child 1 is a leaf with label {0} when `first`, else with
    an empty label; nothing may be asked about 2 or 3."""

    def __init__(self, bounds, first):
        super().__init__()
        self.bounds, self.first = bounds, first

    def out_neighbours(self, vertex):
        return {0: (1, 2, 3), 1: ()}[vertex]

    def in_degree(self, vertex):
        return 1

    def label_contains(self, vertex, count):
        if vertex != 1:
            raise AssertionError(f"label_contains({vertex!r}, {count}) asked")
        return count == 0

    def label_bounds(self, vertex):
        if vertex not in (0, 1):
            raise AssertionError(f"label_bounds({vertex!r}) asked")
        if vertex == 0:
            return self.bounds
        return (0, 0) if self.first else None


class _ExactSettleGraph(_SettleGraph):
    label_bounds_exact = True


@pytest.mark.parametrize("graph, verdict, memo", [
    # an accepted child passes hi = 0
    (_SettleGraph((0, 0), True), False, {(0, 5): False, (1, 4): True}),
    # a rejected child leaves 2 < lo = 3 to count
    (_SettleGraph((3, 5), False), False, {(0, 5): False, (1, 4): False}),
    # an accepted child reaches lo = 1 and 1 + 2 children left stay within hi
    (_ExactSettleGraph((1, 3), True), True, {(0, 5): True, (1, 4): True}),
    # any count of 3 children lies in [0, 3]: settled where it is reached
    (_ExactSettleGraph((0, 3), True), True, {(0, 5): True}),
])
def test_memo_engine_stops_when_the_children_left_cannot_change_the_verdict(graph, verdict, memo):
    assert x_membership(graph, 0, 5) is verdict
    assert graph.memo == memo


def _assert_engines_ask_alike(graph, queries):
    # one stack frame per reached vertex or none for a vertex that needs
    # no children: the same callbacks in the same order, the same memo
    runs = []
    for engine in (reference_x_membership, x_membership):
        recorder = RecordingGraph(graph)
        verdicts = [engine(recorder, vertex, ell) for vertex, ell in queries]
        runs.append((verdicts, recorder.memo, recorder.calls))
    (want_verdicts, want_memo, want_calls), (verdicts, memo, calls) = runs
    assert verdicts == want_verdicts
    assert memo == want_memo
    assert calls == want_calls


def test_memo_engine_asks_the_reference_callbacks_on_canon_graphs():
    for tree in _canon_graph_trees():
        top = range(1, tree.n + 1)
        queries = [((tree.root, a, b), tree.n) for a in top for b in top]
        _assert_engines_ask_alike(tree.canon_graph(), queries)


def test_memo_engine_asks_the_reference_callbacks_on_tree_gadgets():
    for tree in _canon_graph_trees():
        pairs = itertools.product(range(tree.n), repeat=2)
        queries = [((0, v, w, v, w, 0), tree.iso_gadget().resource) for v, w in pairs]
        _assert_engines_ask_alike(tree.iso_gadget(), queries)
        _assert_engines_ask_alike(tree.order_gadget(), queries)


@pytest.mark.parametrize("circuit", [not_chain(30), generate_random_circuit(30, seed=2)])
def test_memo_engine_asks_the_reference_callbacks_on_the_circuit_graph(circuit):
    n = circuit.universe_size
    graph = EvalContext(circuit).formula_graph(_lrec_node(CIRCUIT_FORMULA), {})
    queries = [
        (graph.class_of((gate,)), ell) for gate in range(n) for ell in range((n + 1) ** 2)
    ]
    _assert_engines_ask_alike(graph, queries)


def test_engine_invariant_checks_survive_python_O():
    script = (
        "import sys\n"
        "from limrec.errors import LimrecError\n"
        "from limrec import evaluator\n"
        "from limrec.evaluator import LabelledGraph, x_membership, x_membership_streaming\n"
        "from limrec.treelogic import DirectedTree, tree_canon\n"
        "class G(LabelledGraph):\n"
        "    def out_neighbours(self, v): return (1,) if v == 0 else ()\n"
        "    def in_degree(self, v): return 0\n"
        "    def label_contains(self, v, c): return c == 0\n"
        "assert False, 'asserts must be off'\n"
        "for engine in (x_membership, x_membership_streaming):\n"
        "    try:\n"
        "        engine(G(), 0, 5)\n"
        "    except LimrecError:\n"
        "        pass\n"
        "    else:\n"
        "        sys.exit(f'{engine.__name__}: no in-degree error')\n"
        # the streaming counter budget: a spine of 20 vertices, each with 3
        # leaves beside the next spine vertex, |W| = 81, walked with the
        # children in increasing size needs 2*(20*2 + 7) bits > 6*log2(81)
        "class Spine(LabelledGraph):\n"
        "    def out_neighbours(self, v):\n"
        "        i, k = v\n"
        "        return ((i, 1), (i, 2), (i, 3), (i + 1, 0)) if k == 0 and i < 20 else ()\n"
        "    def in_degree(self, v): return 1\n"
        "    def label_contains(self, v, c): return c == 0\n"
        "if x_membership_streaming(Spine(), (0, 0), 30) != x_membership(Spine(), (0, 0), 30):\n"
        "    sys.exit('engines disagree on the spine')\n"
        "table_of = evaluator._unravelling\n"
        "def ascending(*query):\n"
        "    return {pair: (size, kids[::-1]) for pair, (size, kids) in table_of(*query).items()}\n"
        "evaluator._unravelling = ascending\n"
        "try:\n"
        "    x_membership_streaming(Spine(), (0, 0), 30)\n"
        "except LimrecError as exc:\n"
        "    if 'counter budget' not in str(exc):\n"
        "        raise\n"
        "else:\n"
        "    sys.exit('no counter budget error')\n"
        # tree_canon's output check: a flipped verdict makes the copy of a
        # root with three leaves a preorder copy that is not isomorphic
        "star = DirectedTree([None, 0, 0, 0])\n"
        "star.canon_graph().memo[((0, 2, 3), 4)] = True\n"
        "try:\n"
        "    tree_canon(star)\n"
        "except LimrecError as exc:\n"
        "    sys.exit(0 if 'not isomorphic' in str(exc) else 1)\n"
        "sys.exit(1)\n"
    )
    src = str(Path(limrec.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_library_has_no_assert_statements():
    # invariants are real checks, so they also hold under python -O
    paths = sorted(Path(limrec.__file__).resolve().parent.glob("*.py"))
    assert len(paths) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_library_name_is_called_documented_or_traced():
    # a name in src/limrec has a reference elsewhere in src/, belongs to the
    # README's "Library surface", or is read by bench/tracing.py; a dataclass
    # field or self attribute needs an attribute read or a string constant
    # (the binder table reads fields by name) in src/
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    surface = readme.split("## Library surface\n", 1)[1].split("\n## ", 1)[0]
    known = set(re.findall(r"\w+", surface + (root / "bench" / "tracing.py").read_text()))
    defined, referenced, fields, read = [], set(), [], set()
    for path in sorted((root / "src" / "limrec").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined += [(path.name, f.name) for f in node.body if isinstance(f, ast.FunctionDef)]
                if any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
                    fields += [
                        (path.name, node.name, f.target.id) for f in node.body
                        if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                    ]
                fields += [
                    (path.name, node.name, a.attr) for a in ast.walk(node)
                    if isinstance(a, ast.Attribute) and isinstance(a.ctx, ast.Store)
                    and isinstance(a.value, ast.Name) and a.value.id == "self"
                ]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
            elif isinstance(node, ast.Assign):
                defined += [(path.name, t.id) for t in node.targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                referenced.add(node.attr)
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    assert len(defined) > 100 and len(fields) > 50
    unused = [
        f"{name}:{attr}" for name, attr in defined
        if not re.fullmatch(r"__\w+__", attr) and attr not in referenced | known
    ]
    unused += [
        f"{name}:{cls}.{attr}" for name, cls, attr in dict.fromkeys(fields)
        if attr not in read | known
    ]
    assert unused == []


# hooks of bench/tracing.py whose library code is gone, so their per-layer
# metrics read 0; mending one of those metrics takes its name off this set
ORPHANED_TRACER_HOOKS = {
    "EvalContext.quotient_graph", "QuotientGraph", "possible_ends", "coloured_compare",
    "decomposition_components", "unravel",
}


def test_tracer_hooks_name_library_code():
    # the tracer wraps what it finds and silently skips the rest, so a
    # refactor that renames or inherits a hooked name orphans its metric
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {m: importlib.import_module(f"limrec.{m}") for m in tracing.MODULES}
    methods = tracing.SPAN_METHODS + tracing.COUNTED + tuple(
        (m, c, f) for m, c in tracing.CALLBACK_CLASSES for f in tracing.CALLBACKS
    )
    missing = set()
    for m, cls_name, attr in methods:
        cls = getattr(modules[m], cls_name, None)
        if cls is None:
            missing.add(cls_name)
        elif attr not in vars(cls):  # the tracer patches the class's own attribute
            missing.add(f"{cls_name}.{attr}")
    functions = [("intervalcanon", f) for f in tracing.INTERVAL_PHASES]
    functions += [("treelogic", f) for f in tracing.TREE_FUNCTIONS]
    # the span names Tracer._hooks compares against: its string constants
    # naming a module's function or method, and one per vertex-set key
    hooks = ast.parse(textwrap.dedent(inspect.getsource(tracing.Tracer._hooks)))
    hooked = {
        node.value for node in ast.walk(hooks)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and re.fullmatch(r"\w+(\.\w+)+", node.value) and node.value.split(".")[0] in modules
    }
    hooked |= {f"intervalcanon.{key}" for key in tracing.Tracer(None).vertex_sets}
    assert len(hooked) == 5
    for name in hooked:
        m, *attrs = name.split(".")
        if len(attrs) == 1:
            functions.append((m, attrs[0]))
        else:
            methods += ((m, *attrs),)
    for m, name in functions:
        fn = vars(modules[m]).get(name)
        if not (inspect.isfunction(fn) and fn.__module__ == modules[m].__name__):
            missing.add(name)
    assert missing == ORPHANED_TRACER_HOOKS


def test_lazy_formula_graph_matches_materialised(monkeypatch):
    rng = random.Random(7)
    n = 4
    edges = {(a, b) for a in range(n) for b in range(n) if rng.random() < 0.4}
    structure = Structure(GRAPH_VOCAB, n, {"E": edges})
    formula = parse_formula(
        "[lrec x, y, #p : E(x, y) and not x = y ; x = s or count(y ; E(y, x)) = #p](z, #r)"
    )
    eager_ctx = EvalContext(structure)
    monkeypatch.setattr(evaluator, "EDGE_MATERIALIZE_THRESHOLD", 0)
    lazy_ctx = EvalContext(structure)
    for s in range(n):
        eager = eager_ctx.formula_graph(formula, {svar("s"): s})
        lazy = lazy_ctx.formula_graph(formula, {svar("s"): s})
        # below the threshold in-degrees are counted in one sweep
        assert eager._sweep and not lazy._sweep
        for v in [(a,) for a in range(n)]:
            assert lazy.out_neighbours(v) == eager.out_neighbours(v)
            assert lazy.in_degree(v) == eager.in_degree(v)
            for count in range(-1, eager.label_bound + 1):
                assert lazy.label_contains(v, count) == eager.label_contains(v, count)
        for z in range(n):
            for r in range(n + 1):
                alpha = {svar("s"): s, svar("z"): z, nvar("r"): r}
                for engine in ("memo", "stream"):
                    assert evaluate(structure, alpha, formula, engine, ctx=lazy_ctx) == evaluate(
                        structure, alpha, formula, engine, ctx=eager_ctx
                    )


# --- the static query planner -----------------------------------------------


def _unplanned():
    """Patch the planner to source order: no miniscoping, every operand
    of equal cost."""
    return mock.patch.multiple(evaluator, _miniscope=lambda f, costs: f, _cost=lambda f, costs: 0)


def test_planner_rewrites_the_circuit_formula(circuit_formula):
    r, r1, r2 = nvar("r"), nvar("r1"), nvar("r2")
    node = _lrec_node(circuit_formula)
    planned = evaluator._plan(circuit_formula)
    # one lrec query, reached only at the largest resource pair
    assert planned == Exists(r1, And((
        Forall(r, LeqNum(r, r1)),
        Exists(r2, And((Forall(r, LeqNum(r, r2)), evaluator._plan(node)))),
    )))
    # cheap disjuncts first, and the `#p = 0` sugar tests #p = #c before its forall
    assert pretty(evaluator._plan(node.phi_label)) == (
        "P1(x) or Por(x) and not exists #_c0 (#p = #_c0 and forall #_c1 #_c0 <= #_c1)"
        " or Pnot(x) and exists #_c2 (#p = #_c2 and forall #_c3 #_c2 <= #_c3)"
        " or Pand(x) and count(y ; E(x, y)) = #p"
    )
    with _unplanned():
        assert evaluator._plan(circuit_formula) == circuit_formula
    assert CIRCUIT_FORMULA == circuit_formula


def test_planner_moves_a_shadowed_binder_out():
    f = parse_formula("exists x (P(x) and exists x E(x, x))")
    assert evaluator._plan(f) == parse_formula("exists x P(x) and exists x E(x, x)")


@pytest.mark.parametrize("text", [
    "exists x (P(x) and exists x E(x, x))",
    "exists x (P(x) and E(x, x))",
    "forall x (P(x) or E(x, x))",
    "forall x (E(x, y) and (P(y) or E(y, x)))",
    "exists x (E(x, y) or P(x) and P(y))",
    "exists #p forall x (#p <= #q and (E(x, y) or not #q <= #p))",
])
def test_planned_matches_source_order_on_all_two_element_structures(text):
    f = parse_formula(text)
    free = sorted(free_variables(f), key=repr)
    pairs = [(a, b) for a in range(2) for b in range(2)]
    vocab = Vocabulary((("E", 2), ("P", 1)))
    for bits in range(2 ** 6):
        edges = {pairs[i] for i in range(4) if bits >> i & 1}
        marked = {(v,) for v in range(2) if bits >> (4 + v) & 1}
        structure = Structure(vocab, 2, {"E": edges, "P": marked})
        for row in itertools.product(*(range(2 if v.sort == STRUCT else 3) for v in free)):
            alpha = dict(zip(free, row))
            planned = evaluate(structure, alpha, f)
            with _unplanned():
                assert evaluate(structure, alpha, f) == planned, (edges, marked, alpha)


def _first_order_formulas():
    """Quantifier-dense formulas over two variables of each sort: most
    quantifiers bind a variable of both operands of an and/or, which is
    where the miniscoping has the most to move."""
    svars = st.sampled_from([svar("x"), svar("y")])
    nvars = st.sampled_from([nvar("p"), nvar("q")])
    atoms = st.one_of(
        st.builds(lambda a, b: Atom("E", (a, b)), svars, svars),
        st.builds(lambda a: Atom("P", (a,)), svars),
        st.builds(EqVar, svars, svars),
        st.builds(LeqNum, nvars, nvars),
    )
    quantifier = st.sampled_from([Exists, Forall])
    connective = st.sampled_from([And, Or])
    var = st.one_of(svars, nvars)
    return st.recursive(atoms, lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(lambda c, parts: c(parts), connective, _part_tuples(sub)),
        st.builds(lambda q, v, s: q(v, s), quantifier, var, sub),
        st.builds(
            lambda q, v, c, parts: q(v, c(parts)), quantifier, var, connective, _part_tuples(sub)
        ),
    ), max_leaves=12)


def _part_tuples(sub):
    """2 to 4 parts for an and/or."""
    return st.lists(sub, min_size=2, max_size=4).map(tuple)


@given(st.one_of(_formulas(), _first_order_formulas()), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_planned_evaluation_matches_source_order(formula, seed):
    rng = random.Random(seed)
    free = sorted(free_variables(formula), key=repr)
    for _ in range(8):
        n = rng.randint(1, 3)
        pairs = [(a, b) for a in range(n) for b in range(n)]
        edges = {pair for pair in pairs if rng.random() < 0.5}
        marked = {(v,) for v in range(n) if rng.random() < 0.5}
        structure = Structure(Vocabulary((("E", 2), ("P", 1))), n, {"E": edges, "P": marked})
        rows = list(itertools.product(*(range(n if v.sort == STRUCT else n + 1) for v in free)))
        for engine in ("memo", "stream"):
            planned_ctx, source_ctx = EvalContext(structure), EvalContext(structure)
            for row in rng.sample(rows, min(len(rows), 6)):
                alpha = dict(zip(free, row))
                planned = evaluate(structure, alpha, formula, engine, ctx=planned_ctx)
                with _unplanned():
                    source = evaluate(structure, alpha, formula, engine, ctx=source_ctx)
                assert planned == source, (structure, engine, alpha)


def test_circuit_formula_graph_memo_is_linear_on_a_not_chain():
    # Source order ran the lrec query for each of the (n+1)^2 resource
    # pairs, leaving O(n^3) memo entries; planned, one query remains.
    n = 200
    chain = not_chain(n)
    ctx = EvalContext(chain)
    assert evaluate(chain, {svar("z"): 0}, CIRCUIT_FORMULA, ctx=ctx) is False
    graphs = [g for _, _, by_values in ctx._graphs.values() for g in by_values.values()]
    assert len(graphs) == 1
    assert len(graphs[0].memo) <= 2 * n
    assert circuit_value(chain) is circuit_value_oracle(chain) is False


def _deep(shape, depth):
    """E(x, x) under `depth` levels of not, and or exists, built without
    the parser."""
    atom = f = Atom("E", (svar("x"), svar("x")))
    for _ in range(depth):
        f = {"not": Not(f), "and": And((f, atom)), "exists": Exists(svar("y"), f)}[shape]
    return f


@pytest.mark.parametrize("shape", ["not", "and", "exists"])
def test_evaluate_rejects_too_deep_formulas(shape):
    g = Structure.parse("vocab E/2\nuniverse 2\nE 0 0\n")
    with pytest.raises(FormulaError, match="nested too deeply"):
        evaluate(g, {svar("x"): 0}, _deep(shape, 3000))


@pytest.mark.parametrize("shape", ["not", "and", "exists"])
def test_evaluate_hundred_deep_formulas(shape):
    g = Structure.parse("vocab E/2\nuniverse 2\nE 0 0\n")
    for engine in ("memo", "stream"):
        assert evaluate(g, {svar("x"): 0}, _deep(shape, 100), engine) is True


@pytest.mark.parametrize("kind", [And, Or])
def test_long_flat_chains_need_no_recursion(kind):
    # every walk, the planner and the compiled closure take the parts of
    # an and/or in one loop: a 10,000-part node needs a handful of frames
    x, z = svar("x"), svar("z")
    ys = [svar(f"y{i}") for i in range(10_000)]
    f = kind(tuple(Atom("E", (x, y)) for y in ys))
    # under x = 0 every part but the last holds, under x = 1 only the last
    g = Structure.parse(
        "vocab E/2\nuniverse 10\nE 1 0\n" + "".join(f"E 0 {i}\n" for i in range(1, 10))
    )
    alpha = {y: 1 + i % 9 for i, y in enumerate(ys)}
    alpha[ys[-1]] = 0
    text = (" and " if kind is And else " or ").join(f"E(x, {y!r})" for y in ys)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        validate(f)
        assert free_variables(f) == {x, *ys}
        assert substitute(f, {x: z}) == kind(tuple(Atom("E", (z, y)) for y in ys))
        assert expand_dtc(f) == f
        assert evaluator._plan(f) == f
        assert pretty(f) == text
        assert parse_formula(text) == f
        for x_value in (0, 1):
            for engine in ("memo", "stream"):
                assert evaluate(g, {**alpha, x: x_value}, f, engine) is (kind is Or)
    finally:
        sys.setrecursionlimit(limit)


# --- guarded enumeration -------------------------------------------------------


def _unguarded():
    """Patch guarded enumeration away: every quantifier, count and
    recursion-graph edge loops over the whole domain, and the number
    extremum `forall #r #r <= #t` is decided by its loop."""
    return mock.patch.multiple(
        evaluator, _guard=lambda *args: None, _extremum=lambda *args: None,
    )


def _verdicts(structure, formula, rows, engine, planned, guarded, on_demand=False):
    """Verdicts on each assignment of rows in one fresh context, with the
    planner and the guards on or off; `on_demand` builds every lrec graph
    on demand."""
    with contextlib.ExitStack() as stack:
        if not planned:
            stack.enter_context(_unplanned())
        if not guarded:
            stack.enter_context(_unguarded())
        ctx = EvalContext(structure)
        if on_demand:
            ctx.edge_threshold = 0
        return [evaluate(structure, alpha, formula, engine, ctx=ctx) for alpha in rows]


def _assert_modes_agree(structure, formula, rows, on_demand=(False,)):
    for engine in ("memo", "stream"):
        reference = _verdicts(structure, formula, rows, engine, False, False)
        for planned, guarded, lazy in itertools.product((True, False), (True, False), on_demand):
            got = _verdicts(structure, formula, rows, engine, planned, guarded, lazy)
            assert got == reference, (structure, pretty(formula), engine, planned, guarded, lazy)


@given(_formulas(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_guarded_evaluation_matches_unguarded(formula, n, seed):
    rng = random.Random(seed)
    pairs = [(a, b) for a in range(n) for b in range(n)]
    edges = {pair for pair in pairs if rng.random() < 0.5}
    marked = {(v,) for v in range(n) if rng.random() < 0.5}
    structure = Structure(Vocabulary((("E", 2), ("P", 1))), n, {"E": edges, "P": marked})
    free = sorted(free_variables(formula), key=repr)
    rows = list(itertools.product(*(range(n if v.sort == STRUCT else n + 1) for v in free)))
    rows = [dict(zip(free, row)) for row in rng.sample(rows, min(len(rows), 6))]
    _assert_modes_agree(structure, formula, rows)


GUARD_SHAPES = [
    "exists z E(z, z)",
    "exists z (E(z, z) and P(z))",
    "exists y (E(x, y) and P(y))",
    "exists y (E(y, x) and not y = x)",
    "forall y (not E(x, y) or P(y))",
    "forall y (not E(y, y) or E(x, y))",
    "exists y (R(x, y, z) and P(y))",
    "exists y (R(x, y, x) and not P(y))",
    "forall y (not R(z, y, x) or E(y, x))",
    "count(y, z ; R(x, y, z)) = #p",
    "count(z, y ; R(x, y, z) and E(y, z)) = #p",
    "count(y ; E(x, y)) = #p",
    "count(y ; E(y, y)) = #p",
    "exists #t (forall #r #r <= #t and #p <= #t)",
    "exists #t (forall #r #t <= #r and #t <= #p)",
    "exists #r (forall #r #r <= #q and #r <= #p)",
    "exists #t (forall #t #t <= #p and #p <= #t)",
    "forall #t (not forall #r #r <= #t or #p <= #t)",
    "count(#t ; forall #q #t <= #q) = #p",
    "exists #t forall #r (#r <= #t and exists #t #t <= #r)",
    "[lrec x, y, #p : E(x, y) and P(y) ; count(y ; E(x, y)) = #p](z, #r)",
    "[lrec x, y, #p : E(y, x) ; P(x) or #p = 0](z, #r)",
    "[lrec x, y, #p : R(x, y, w) or E(x, y) ; not #p = 0](z, #r)",
    "[lrec x, y, #p : R(x, w, y) and not x = y ; P(x) or #p = 0](z, #r)",
    "[lrec x, x, #p : E(x, x) or P(x) ; count(y ; E(x, y)) = #p](z, #r)",
    "[dtc x, y : E(x, y)](z, w)",
    "[lreceq x, y, #p : E(x, y) ; not x = x ; x = w](z, #r)",
    "[lreceq x, y, #p : R(x, y, w) ; E(x, y) ; P(x) and not #p = 0](z, #r)",
    # guarded universals `forall z (not A or B)`: B(y, z0) at a witness z0 of A
    "exists y (forall z (not E(x, z) or E(y, z)) and P(y))",
    "exists y forall z (not E(z, x) or R(z, y, w))",
    "exists y forall z (E(y, z) or not E(z, x))",
    "exists y (forall z (not P(z) or E(y, z)) and not P(y))",
    "exists y forall z (not E(y, z) or E(z, y))",
    "count(y ; forall z (not E(x, z) or E(y, z) or z = w)) = #p",
    "exists y (forall z (not E(x, z) or E(y, z)) and not E(z, y))",
    "count(y ; forall z (not E(x, z) or E(y, z))) = #p",
    "forall y (forall z (not E(x, z) or E(y, z)) or P(y))",
    "[lreceq x, y, #p : E(x, y) ; forall z (not E(x, z) or E(y, z)) ; P(x)](w, #r)",
]


@pytest.mark.parametrize("text", GUARD_SHAPES)
def test_guarded_shapes_match_unguarded(text):
    formula = parse_formula(text)
    free = sorted(free_variables(formula), key=repr)
    vocab = Vocabulary((("E", 2), ("P", 1), ("R", 3)))
    rng = random.Random(text)
    for n in (1, 1, 2, 2, 3, 3):
        triples = list(itertools.product(range(n), repeat=3))
        density = rng.choice((0.0, 0.3, 0.6))  # 0.0: every relation empty
        rels = {
            "E": {(a, b) for a, b, _ in triples if rng.random() < density},
            "P": {(a,) for a in range(n) if rng.random() < density},
            "R": {t for t in triples if rng.random() < density},
        }
        structure = Structure(vocab, n, rels)
        rows = [
            dict(zip(free, row))
            for row in itertools.product(*(range(n if v.sort == STRUCT else n + 1) for v in free))
        ]
        _assert_modes_agree(structure, formula, rows, on_demand=(False, True))


def test_guarded_transduction_matches_unguarded():
    x, y = svar("x"), svar("y")
    vocab = Vocabulary((("E", 2), ("P", 1)))
    rng = random.Random(3)
    structures = []
    for n in (1, 2, 3, 4, 5, 6):
        edges = {(a, b) for a in range(n) for b in range(n) if rng.random() < 0.4}
        marked = {(a,) for a in range(n) if rng.random() < 0.5}
        structures.append(Structure(vocab, n, {"E": edges, "P": marked}))
    # isolated vertices, which have no witness: 3 and 4, then every vertex
    structures.append(Structure(vocab, 5, {"E": {(0, 1), (1, 2), (2, 1)}, "P": {(3,)}}))
    structures.append(Structure(vocab, 3, {"E": set(), "P": {(0,), (2,)}}))
    for approx in (
        parse_formula("E(x, y) and E(y, x)"),
        layer_transduction().theta_approx,
        parse_formula("forall z (not E(x, z) or E(y, z))"),
    ):
        theta = Transduction(
            u=(x,), v=(y,),
            theta_v=parse_formula("P(x) or exists y E(x, y)"),
            theta_approx=approx,
            relations=(
                ("E", parse_formula("E(x, y) and not x = y"), ((x,), (y,))),
                ("L", parse_formula("E(x, x)"), ((x,),)),
                ("Q", parse_formula("exists y E(x, y)"), ((x,),)),
            ),
        )
        for structure in structures:
            try:
                guarded = apply_transduction(theta, structure)
            except DomainError:
                with _unguarded(), pytest.raises(DomainError):
                    apply_transduction(theta, structure)
                continue
            with _unguarded():
                assert apply_transduction(theta, structure) == guarded, (pretty(approx), structure)


def _counting_compile(calls):
    """A stand-in for `evaluator._compile` whose closures count their
    calls in `calls`, keyed by formula."""
    real = evaluator._compile

    def compile_counting(ctx, f, engine):
        fn = real(ctx, f, engine)

        def counted(alpha):
            calls[f] += 1
            return fn(alpha)

        return counted

    return mock.patch.object(evaluator, "_compile", compile_counting)


def test_circuit_edges_are_tested_only_along_the_relation():
    # The edge formula E(x, y) is tested on the targets its guard reads
    # from the index, not on all n^2 pairs.
    n = 300
    chain = not_chain(n)
    calls = collections.Counter()
    with _counting_compile(calls):
        assert circuit_value(chain) is False
    assert 0 < calls[_lrec_node(CIRCUIT_FORMULA).phi_edge] <= 4 * n


def test_lreceq_closure_tests_only_guarded_pairs():
    # phi_= = E(x, y): the closure tests each edge's pair at most once,
    # not every pair of vertices.
    rng = random.Random(4)
    n = 120
    edges = set()
    for a in range(n):
        b = rng.randrange(n)
        edges |= {(a, b), (b, a)}
    structure = Structure(GRAPH_VOCAB, n, {"E": edges})
    formula = parse_formula("[lreceq x, y, #p : E(x, y) ; not x = x ; x = t](s, #r)")
    comp = _components(n, edges)
    calls = collections.Counter()
    with _counting_compile(calls):
        ctx = EvalContext(structure)
        for s, t in ((0, 1), (2, 3), (5, 5)):
            alpha = {svar("s"): s, svar("t"): t, nvar("r"): 1}
            assert evaluate(structure, alpha, formula, ctx=ctx) == (comp[s] == comp[t])
    assert 0 < calls[formula.phi_eq] <= 2 * len(edges) + n


@pytest.mark.parametrize("n", range(4, 11))
def test_transduction_closure_tests_only_guarded_pairs(n):
    # The layer glue's guarded universals give each vertex the vertices of
    # its own layer as candidates, not all 2n^2 vertices.
    g = generate_layered_graph(n)
    theta = layer_transduction()
    calls = collections.Counter()
    with _counting_compile(calls):
        out = apply_transduction(theta, g)
    assert _is_two_disjoint_paths(out, n)
    assert 0 < calls[theta.theta_approx] <= g.universe_size


def test_lreceq_edges_are_tested_only_from_the_queried_class():
    # the edge formula finds no edge, so the root asks no in-degree and
    # phi_edge is tested only on the members of the root's class
    n = 30
    edges = {(a, a + 1) for a in range(0, n - 1, 3)}
    edges |= {(b, a) for a, b in edges}
    structure = Structure(GRAPH_VOCAB, n, {"E": edges})
    formula = parse_formula("[lreceq x, y, #p : E(x, y) ; not x = x ; x = t](s, #r)")
    comp = _components(n, edges)
    calls = collections.Counter()
    with _counting_compile(calls):
        alpha = {svar("s"): 0, svar("t"): 1, nvar("r"): 1}
        assert evaluate(structure, alpha, formula) is True
    assert calls[formula.phi_edge] == comp.count(comp[0]) * n == 2 * n


@pytest.mark.parametrize("text", [
    "[lrec x, y, #p : E(x, y) ; x = x](z, #r)",
    "[lreceq x, y, #p : E(x, y) ; not x = x ; x = x](z, #r)",
])
@pytest.mark.parametrize("threshold", [0, evaluator.EDGE_MATERIALIZE_THRESHOLD])
def test_class_of_rejects_a_tuple_outside_the_domain(text, threshold):
    structure = Structure(GRAPH_VOCAB, 3, {"E": {(0, 1), (1, 0)}})
    ctx = EvalContext(structure)
    ctx.edge_threshold = threshold
    graph = ctx.formula_graph(parse_formula(text), {})
    assert graph._sweep == (threshold > 0 or isinstance(graph.node, LrecEq))
    assert graph.class_of((2,)) == (2,)
    for tup in ((3,), (-1,), (0, 1), ()):
        with pytest.raises(DomainError, match="outside the recursion domain"):
            graph.class_of(tup)


def test_label_reads_its_outer_variable_named_like_v():
    # y is bound as v in the edge formula but free in the label, where it
    # is the outer y; testing edges must not overwrite it.
    structure = Structure(Vocabulary((("E", 2), ("P", 1))), 3, {"E": {(0, 1)}, "P": {(0,)}})
    formula = parse_formula("[lrec x, y, #p : E(x, y) ; P(y)](z, #r)")
    for y, z, engine in itertools.product(range(3), range(3), ("memo", "stream")):
        alpha = {svar("y"): y, svar("z"): z, nvar("r"): 1}
        assert evaluate(structure, alpha, formula, engine) is (y == 0)
