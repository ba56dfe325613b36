import itertools
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import limrec
from limrec import evaluator
from limrec.errors import DomainError, FormulaError, LimrecError
from limrec.evaluator import (
    EvalContext, LabelledGraph, Transduction, apply_transduction, evaluate, unravel,
    x_membership, x_membership_streaming,
)
from limrec.structures import GRAPH_VOCAB, Structure, generate_layered_graph
from limrec.syntax import (
    STRUCT, And, Atom, EqVar, Exists, Forall, LeqNum, Lrec, LrecEq, Not, Or, free_variables,
    nvar, parse_formula, pretty, svar,
)
from limrec.treelogic import CIRCUIT_FORMULA, circuit_value

from .helpers import ExplicitGraph, circuit_value_oracle, lrec_membership, not_chain
from .test_syntax import _formulas

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
        f = f.sub if hasattr(f, "sub") else f.left
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
                assert x_membership(g, (v,), ell) == x_membership_streaming(g, (v,), ell)


def test_unravelling_matches_claim():
    # every tree node's Y-verdict equals X-membership of its (vertex, resource)
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 5)
        g = _random_graph(rng, n)
        root = (rng.randrange(n),)
        ell = rng.randint(0, 15)
        tree = unravel(g, root, ell)
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
            built_up_front = ctx.formula_graph(lrec, {svar("s"): 0})._class_of is not None
            assert built_up_front != on_demand


# --- transductions ---------------------------------------------------------


def layer_transduction():
    x, y, z = svar("x"), svar("y"), svar("z")
    ex_z = Atom("E", (x, z))
    ey_z = Atom("E", (y, z))
    ez_x = Atom("E", (z, x))
    ez_y = Atom("E", (z, y))
    same_nbhd = Forall(
        z,
        And(
            And(Or(Not(ex_z), ey_z), Or(Not(ey_z), ex_z)),
            And(Or(Not(ez_x), ez_y), Or(Not(ez_y), ez_x)),
        ),
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


def test_engine_invariant_checks_survive_python_O():
    script = (
        "import sys\n"
        "from limrec.errors import LimrecError\n"
        "from limrec.evaluator import LabelledGraph, x_membership\n"
        "class G(LabelledGraph):\n"
        "    def out_neighbours(self, v): return (1,) if v == 0 else ()\n"
        "    def in_degree(self, v): return 0\n"
        "    def label_contains(self, v, c): return c == 0\n"
        "assert False, 'asserts must be off'\n"
        "try:\n"
        "    x_membership(G(), 0, 5)\n"
        "except LimrecError:\n"
        "    sys.exit(0)\n"
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
        # a graph built up front knows the class of every tuple
        assert eager._class_of is not None and lazy._class_of is None
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
    assert planned == Exists(r1, And(
        Forall(r, LeqNum(r, r1)),
        Exists(r2, And(Forall(r, LeqNum(r, r2)), evaluator._plan(node))),
    ))
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
        st.builds(lambda c, a, b: c(a, b), connective, sub, sub),
        st.builds(lambda q, v, s: q(v, s), quantifier, var, sub),
        st.builds(lambda q, v, c, a, b: q(v, c(a, b)), quantifier, var, connective, sub, sub),
    ), max_leaves=12)


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
        f = {"not": Not(f), "and": And(f, atom), "exists": Exists(svar("y"), f)}[shape]
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
