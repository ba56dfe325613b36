"""Acceptance suite: one test per criterion, exact tolerances, one
pass line printed per criterion (visible with pytest -s)."""

import random
from pathlib import Path

import numpy as np
import pytest

from limrec.evaluator import EvalContext, apply_transduction, evaluate, x_membership
from limrec.intervalcanon import (
    Graph, clique_preorder, collapse_incomparables, interval_canon, max_cliques, span_map,
)
from limrec.structures import (
    GRAPH_VOCAB, Structure, generate_layered_graph,
    generate_random_interval_graph,
)
from limrec.syntax import Lrec, nvar, parse_formula, svar
from limrec.treelogic import tree_canon, tree_isomorphic, tree_order_less

from .helpers import (
    ExplicitGraph, all_trees, canon_edges_to_tree, decomposition_components, graph_iso,
    graphs_up_to_iso, is_clique_set, is_interval_graph, is_module, lrec_membership, mask_to_edges,
    permute_tree, random_permutation, streaming_like_reference, subtree_string,
    tree_canon_oracle,
)
from .test_evaluator import _det_path_oracle, layer_transduction, reach_formula
from .test_intervalcanon import (
    _consecutive_orders, _oracle_decomposition_sets, _oracle_first_cliques,
    _relabel, _int_graph,
)

DATA = Path(__file__).parent / "data"


def _report(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_worked_example_fidelity():
    circuit = Structure.parse((DATA / "circuit_small.struct").read_text())
    formula = parse_formula((DATA / "circuit_eval.formula").read_text())
    node = formula
    while not isinstance(node, Lrec):
        node = node.sub if hasattr(node, "sub") else node.parts[0]
    ctx = EvalContext(circuit)
    alpha = {svar("z"): circuit.element_index("a")}

    def member(name, ell):
        vertex = (circuit.element_index(name),)
        return lrec_membership(circuit, alpha, node, vertex, ell, ctx=ctx)

    for name in "cehjk":
        assert member(name, 1)
    assert not member("f", 1)
    assert not member("i", 1)
    assert member("b", 2)
    for ell in range(1, 12):
        assert not member("g", ell)
    assert member("d", 3)
    assert member("a", 4)
    assert evaluate(circuit, alpha, formula, ctx=ctx) is True
    _report(1, "worked-example-fidelity")


def test_criterion_02_engine_equivalence():
    rng = random.Random(2024)
    instances = 0
    while instances < 500:
        n = rng.randint(1, 6)
        out = {}
        labels = {}
        for v in range(n):
            outs = sorted(w for w in range(n) if w != v and rng.random() < 0.4)
            out[(v,)] = tuple((w,) for w in outs)
            labels[(v,)] = {m for m in range(n + 2) if rng.random() < 0.3}
        graph = ExplicitGraph(out, labels)
        for v in range(n):
            for ell in range(0, 21):
                memo = x_membership(graph, (v,), ell)
                stream = streaming_like_reference(graph, (v,), ell)
                assert memo == stream, (out, labels, v, ell)
        instances += 1
    _report(2, "engine-equivalence-and-counter-budget")


def test_criterion_03_non_monotonicity_witness():
    g = Structure.parse("vocab E/2\nuniverse 2\nE 0 1\n")
    from limrec.syntax import Atom, Forall, LeqNum

    node = Lrec(
        (svar("u"),), (svar("v"),), (nvar("p"),),
        Atom("E", (svar("u"), svar("v"))),
        Forall(nvar("q"), LeqNum(nvar("p"), nvar("q"))),
        (svar("u"),), (nvar("p"),),
    )
    assert lrec_membership(g, {}, node, (0,), 1) is True
    assert lrec_membership(g, {}, node, (0,), 2) is False
    _report(3, "non-monotonicity-witness")


def test_criterion_04_dtc_exhaustive_four_vertices():
    formula = parse_formula("[dtc x, y : E(x, y)](s, t)")
    n = 4
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    for bits in range(1 << len(pairs)):
        edges = {pairs[i] for i in range(len(pairs)) if bits >> i & 1}
        g = Structure(GRAPH_VOCAB, n, {"E": edges})
        ctx = EvalContext(g)
        for s in range(n):
            for t in range(n):
                got = evaluate(g, {svar("s"): s, svar("t"): t}, formula, ctx=ctx)
                assert got == _det_path_oracle(n, edges, s, t), (sorted(edges), s, t)
    _report(4, "dtc-matches-path-oracle")


def test_criterion_05_tree_isomorphism():
    from limrec.evaluator import x_membership as member

    for tree in all_trees(7):
        for v in range(tree.n):
            for w in range(tree.n):
                expected = subtree_string(tree, v) == subtree_string(tree, w)
                assert tree_isomorphic(tree, v, w) == expected, (tree.parent, v, w)
    # completeness threshold on trees up to 6 vertices
    for tree in all_trees(6):
        if tree.n < 4:
            continue
        gadget = tree.iso_gadget()
        for v in range(tree.n):
            for w in range(tree.n):
                if subtree_string(tree, v) == subtree_string(tree, w):
                    assert member(gadget, (0, v, w, v, w, 0), tree.size[v] ** 5)
    _report(5, "tree-isomorphism-gadget")


def test_criterion_06_tree_order():
    for tree in all_trees(7):
        n = tree.n
        less = {
            (v, w): tree_order_less(tree, v, w) for v in range(n) for w in range(n)
        }
        for v in range(n):
            assert not less[(v, v)]
            for w in range(n):
                if less[(v, w)]:
                    assert not less[(w, v)]
                incomparable = not less[(v, w)] and not less[(w, v)]
                iso = subtree_string(tree, v) == subtree_string(tree, w)
                assert incomparable == iso
                for x in range(n):
                    if less[(v, w)] and less[(w, x)]:
                        assert less[(v, x)]
    _report(6, "tree-order-strict-weak")


def test_criterion_07_tree_canonisation():
    rng = random.Random(7)
    by_class = {}
    for tree in all_trees(8):
        canon = tree_canon(tree)
        key = tree_canon_oracle(tree)
        if key in by_class:
            assert by_class[key] == canon
        else:
            by_class[key] = canon
        assert tree_canon_oracle(canon_edges_to_tree(canon, tree.n)) == key
        perm = random_permutation(tree.n, rng)
        assert tree_canon(permute_tree(tree, perm)) == canon
    # canon equality iff isomorphism across all pairs of representatives
    canons = list(by_class.values())
    assert len(set(canons)) == len(canons)
    _report(7, "tree-canonisation")


def test_criterion_08_lrec_eq_reachability():
    rng = random.Random(88)
    formula = reach_formula()
    for _ in range(500):
        n = rng.randint(1, 12)
        undirected = set()
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.18:
                    undirected.add((a, b))
        edges = {(a, b) for a, b in undirected} | {(b, a) for a, b in undirected}
        g = Structure(GRAPH_VOCAB, n, {"E": edges})
        comp = list(range(n))

        def find(x):
            while comp[x] != x:
                comp[x] = comp[comp[x]]
                x = comp[x]
            return x

        for a, b in undirected:
            comp[find(a)] = find(b)
        ctx = EvalContext(g)
        for s in range(n):
            for t in range(n):
                alpha = {svar("s"): s, svar("t"): t, nvar("r"): 1}
                assert evaluate(g, alpha, formula, ctx=ctx) == (find(s) == find(t))
    _report(8, "lrec-eq-reachability")


def test_criterion_09_transduction_layered_graphs():
    theta = layer_transduction()
    for n in range(4, 11):
        out = apply_transduction(theta, generate_layered_graph(n))
        assert out.universe_size == 2 * n
        assert len(out.rel("E")) == 2 * (n - 1)
        outs = {}
        ins = {}
        for a, b in out.rel("E"):
            outs.setdefault(a, []).append(b)
            ins.setdefault(b, []).append(a)
        assert all(len(v) == 1 for v in outs.values())
        assert all(len(v) == 1 for v in ins.values())
        starts = [v for v in range(out.universe_size) if v not in ins]
        assert len(starts) == 2
        for start in starts:
            length, cur = 1, start
            while cur in outs:
                cur = outs[cur][0]
                length += 1
            assert length == n
    _report(9, "transduction-two-paths")


def _interval_representatives(max_n):
    """Connected interval-graph representatives up to isomorphism, with the
    recognizer cross-checked against a brute-force model oracle."""
    reps = []
    for n in range(1, max_n + 1):
        for mask in graphs_up_to_iso(n, np):
            g = Graph(range(n), mask_to_edges(mask, n))
            recognized = is_interval_graph(g)
            assert recognized == _brute_is_interval(g), (n, mask)
            if recognized:
                reps.append((n, g))
    return reps


def _brute_is_interval(g: Graph) -> bool:
    """Independent recognition: true max cliques by subset enumeration,
    then try every clique permutation for consecutiveness."""
    n = g.n
    verts = list(g.vertices)
    cliques = []
    for bits in range(1, 1 << n):
        subset = [verts[i] for i in range(n) if bits >> i & 1]
        if is_clique_set(g, subset):
            cliques.append(frozenset(subset))
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    if len(maximal) > n:
        return False
    return bool(_consecutive_orders(maximal))


@pytest.fixture(scope="module")
def interval_reps():
    return _interval_representatives(7)


def test_criterion_10_interval_pipeline_properties(interval_reps):
    for n, g in interval_reps:
        cliques = max_cliques(g)
        firsts = _oracle_first_cliques(g)
        ends = []
        for m in cliques:
            pre = clique_preorder(g, m)
            # asymmetry iff strict weak order iff permutation-oracle end
            if pre.asymmetric:
                assert pre.classes, "weak order must produce classes"
            assert pre.asymmetric == (tuple(sorted(m)) in firsts)
            if pre.asymmetric:
                ends.append(m)
        assert ends, "interval graphs have a possible end"
        spans = span_map(g)
        for m in ends:
            pre = clique_preorder(g, m)
            for group in pre.classes:
                union = set().union(*(cliques[i] for i in group))
                outside = (
                    set().union(
                        *(cliques[i] for i in range(len(cliques)) if i not in group)
                    )
                    if len(group) < len(cliques)
                    else set()
                )
                s_direct = union - outside
                s_span = {v for v in union if spans[v] <= len(group)}
                assert s_direct == s_span
                assert not s_direct or is_module(g, s_direct)
        if not g.apices() and g.n >= 2:
            quotients = []
            for m in ends:
                first = collapse_incomparables(g, m)
                z = first.graph.cliques[-1]
                second = collapse_incomparables(first.graph, z)
                quotients.append(_int_graph(second.graph))
            for q in quotients[1:]:
                assert graph_iso(quotients[0].edges(), q.edges(), quotients[0].n, q.n)
        got = {comp for _, _, comp in decomposition_components(g)}
        assert got == _oracle_decomposition_sets(g)
    _report(10, "interval-pipeline-properties")


def test_criterion_11_interval_canonisation(interval_reps):
    rng = random.Random(1111)
    seen = set()
    for n, g in interval_reps:
        cn, cedges = interval_canon(g)
        assert cn == n
        zero = {(u - 1, v - 1) for u, v in cedges}
        assert graph_iso(zero, g.edges(), n, n)
        key = (n, cedges)
        assert key not in seen, "two non-isomorphic graphs share a canon"
        seen.add(key)
        assert interval_canon(Graph(range(n), zero)) == (cn, cedges)
        perm = random_permutation(n, rng)
        assert interval_canon(_relabel(g, perm)) == (cn, cedges)
    # 1000 random relabelled pairs at n = 20 give byte-identical canons
    for trial in range(1000):
        s = generate_random_interval_graph(20, seed=trial)
        g = Graph.from_structure(s)
        perm = random_permutation(20, rng)
        left = interval_canon(g)
        right = interval_canon(_relabel(g, perm))
        assert left == right, trial
    _report(11, "interval-canonisation")
