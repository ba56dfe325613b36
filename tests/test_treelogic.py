import itertools
import random
import sys
from pathlib import Path

import pytest

from limrec import treelogic
from limrec.errors import DomainError, LimrecError, RecognitionError
from limrec.evaluator import x_membership
from limrec.structures import (
    Structure, generate_random_circuit, generate_random_tree,
)
from limrec.treelogic import (
    DirectedTree, _CanonGraph, _check_canonical_copy, check_path_property, circuit_value,
    coloured_keys, tree_canon, tree_isomorphic, tree_order_less,
)

from .helpers import (
    ReferenceCanonGraph, UnprunedGraph, all_trees, build_iso_gadget, build_order_gadget,
    canon_edges_to_tree, circuit_value_oracle, coloured_canonical_form, not_chain, permute_tree,
    profile, random_permutation, reference_dense_profile, reference_tree_canon,
    streaming_like_reference, subtree_string, tree_canon_oracle, tree_shapes, tree_to_structure,
)

DATA = Path(__file__).parent / "data"
BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tree_shape_counts():
    # rooted unlabelled trees per vertex count
    assert [len(tree_shapes(n)) for n in range(1, 9)] == [1, 1, 2, 4, 9, 20, 48, 115]


def test_directed_tree_validation():
    with pytest.raises(DomainError):
        DirectedTree([None, None])
    with pytest.raises(DomainError):
        DirectedTree([1, 0])
    with pytest.raises(DomainError):
        DirectedTree([])


def test_tree_from_structure_and_parent_line():
    s = Structure.parse("vocab E/2\nuniverse 3\nE 0 1\nE 1 2\n")
    t = DirectedTree.from_structure(s)
    assert t.root == 0 and t.size[0] == 3
    u = DirectedTree.from_parent_line("parents -1 0 1")
    assert u.parent == [None, 0, 1]
    assert tree_to_structure(t).rel("E") == {(0, 1), (1, 2)}


def test_profile_invariant():
    # the size-indexed child counts always sum back to size - 1
    for tree in all_trees(7):
        for v in range(tree.n):
            p = profile(tree, v)
            assert p[0] == tree.size[v]
            assert sum(-neg_s * c for neg_s, c in p[1:]) == tree.size[v] - 1


def test_compact_profiles_order_like_dense():
    for tree in all_trees(7):
        for v in range(tree.n):
            for w in range(tree.n):
                pv, pw = profile(tree, v), profile(tree, w)
                dv, dw = reference_dense_profile(tree, v), reference_dense_profile(tree, w)
                assert (pv == pw) == (dv == dw), (tree.parent, v, w)
                assert (pv < pw) == (dv < dw), (tree.parent, v, w)


def test_profiles_linear_size_on_deep_chains():
    # the dense profiles of two 1,500-vertex chains hold 2,254,501 entries
    parents = [None, 0] + list(range(1, 1500)) + [0] + list(range(1501, 3000))
    tree = DirectedTree(parents)
    assert sum(len(p) for p in tree.profile) <= 3 * tree.n


def test_iso_trivial_cases():
    t = DirectedTree([None, 0, 0, 1])
    assert tree_isomorphic(t, 0, 0)
    assert tree_isomorphic(t, 2, 3)  # two leaves


def test_star_easy_pair():
    t = DirectedTree([None, 0, 0, 0])
    assert not tree_isomorphic(t, 1, 0)
    gadget = build_iso_gadget(t)
    # easy pair: size differs, no out-edges, empty label
    vx = (0, 1, 0, 1, 0, 0)
    assert gadget.out_neighbours(vx) == ()
    assert not any(gadget.label_contains(vx, m) for m in range(t.n + 1))


def test_path_root_pair_label():
    # path on four vertices, (root, root): one child, so the count label is {1}
    t = DirectedTree([None, 0, 1, 2])
    gadget = build_iso_gadget(t)
    vx = (0, 0, 0, 0, 0, 0)
    assert gadget.label_contains(vx, 1)
    assert not gadget.label_contains(vx, 0)
    assert not gadget.label_contains(vx, 2)


def test_iso_gadget_in_degree_shape():
    # every reachable non-type-0 vertex has in-degree exactly one
    for tree in all_trees(6):
        gadget = tree.iso_gadget()
        seen = set()
        stack = [(0, v, w, v, w, 0) for v in range(tree.n) for w in range(tree.n)]
        while stack:
            vx = stack.pop()
            if vx in seen:
                continue
            seen.add(vx)
            for nxt in gadget.out_neighbours(vx):
                if nxt[0] != 0:
                    assert gadget.in_degree(nxt) == 1
                stack.append(nxt)


def _reachable_edge_counts(gadget, roots):
    """Walk the gadget from all roots; count actual incoming edges."""
    seen = set()
    indeg = {}
    stack = list(roots)
    while stack:
        vx = stack.pop()
        if vx in seen:
            continue
        seen.add(vx)
        for nxt in gadget.out_neighbours(vx):
            indeg[nxt] = indeg.get(nxt, 0) + 1
            stack.append(nxt)
    return seen, indeg


@pytest.mark.parametrize("builder", [build_iso_gadget, build_order_gadget])
def test_gadget_in_degrees_match_edge_scan(builder):
    # the analytic in-degree formulas equal the actual edge counts over the
    # full reachable portion (all valid vertices are reachable from the
    # type-0 roots, so the scan sees every generating edge)
    for tree in all_trees(6):
        gadget = builder(tree)
        roots = [(0, v, w, v, w, 0) for v in range(tree.n) for w in range(tree.n)]
        _, indeg = _reachable_edge_counts(gadget, roots)
        for vx, count in indeg.items():
            assert gadget.in_degree(vx) == count, (tree.parent, vx)


def _canon_graph_trees():
    """All trees of at most 6 vertices plus a star, the 3x3 spider and
    the complete binary tree, which add classes of three or more copies,
    blocks wider than one vertex and copies shifted past n."""
    star = DirectedTree([None] + [0] * 9)
    spider = DirectedTree([None, 0, 1, 2, 0, 4, 5, 0, 7, 8])
    binary = DirectedTree([None] + [(v - 1) // 2 for v in range(1, 15)])
    return [*all_trees(6), star, spider, binary]


def _canon_graph_space(tree):
    """Every tuple (v, a, b) of the canon graph's space, a and b in [0, n]."""
    top = tree.n
    return [(v, a, b) for v in range(tree.n) for a in range(top + 1) for b in range(top + 1)]


def test_canon_graph_in_degrees_match_edge_scan():
    # every tuple of the space is a vertex whether or not a root query
    # reaches it, so scan the edges of the entire space
    for tree in _canon_graph_trees():
        graph = tree.canon_graph()
        everything = _canon_graph_space(tree)
        indeg = {}
        for vx in everything:
            for nxt in graph.out_neighbours(vx):
                indeg[nxt] = indeg.get(nxt, 0) + 1
        for vx in everything:
            assert graph.in_degree(vx) == indeg.get(vx, 0), (tree.parent, vx)


def _gadget_space(tree):
    """Every tuple (t, v, w, vh, wh, k) of a gadget's space, t in [0, 4]
    and k in [0, n]."""
    vertices = range(tree.n)
    return [
        (t, v, w, vh, wh, k)
        for t in range(5)
        for v, w, vh, wh in itertools.product(vertices, repeat=4)
        for k in range(tree.n + 1)
    ]


def test_gadget_label_bounds_are_exact():
    # the gadgets declare their bounds exact: label_contains holds on
    # exactly the counts of [lo, hi], and on none when the bounds are None.
    # The counts asked run from 0 to n + 1, or one past hi when that is
    # larger (a tuple no query reaches may have a count above n)
    cases = [(tree.canon_graph(), _canon_graph_space(tree)) for tree in _canon_graph_trees()]
    for tree in all_trees(6):
        space = _gadget_space(tree)
        cases += [(tree.iso_gadget(), space), (tree.order_gadget(), space)]
    for graph, space in cases:
        assert graph.label_bounds_exact
        for vx in space:
            bounds = graph.label_bounds(vx)
            lo, hi = (graph.n + 2, graph.n + 1) if bounds is None else bounds
            counts = [m for m in range(max(graph.n, hi) + 2) if graph.label_contains(vx, m)]
            assert counts == list(range(lo, hi + 1)), (type(graph).__name__, vx, bounds)


def _resource_grid(tree, v):
    """The gadget resource and the grid of
    test_iso_soundness_and_completeness_sampled_resources."""
    threshold = tree.size[v] ** 5
    grid = {1, 2, 3, 7, 31, threshold // 2, threshold, threshold + 5}
    return sorted(grid | {tree.iso_gadget().resource})


def test_pruned_memo_engine_matches_streaming_on_tree_gadgets():
    # the memo engine settles a vertex once the children left cannot change
    # its verdict, the streaming engine walks the whole unravelling: X is
    # the same relation
    for tree in all_trees(6):
        for v, w in itertools.product(range(tree.n), repeat=2):
            query = (0, v, w, v, w, 0)
            for gadget in (tree.iso_gadget(), tree.order_gadget()):
                for ell in _resource_grid(tree, v):
                    assert x_membership(gadget, query, ell) == streaming_like_reference(
                        gadget, query, ell
                    ), (type(gadget).__name__, tree.parent, v, w, ell)


def test_memo_entries_match_an_unpruned_run():
    # every verdict the engine records for a vertex it settled early, or
    # reached through one, is the verdict of a walk over all children
    for tree in all_trees(7):
        tree_canon(tree)
        for v, w in itertools.product(range(tree.n), repeat=2):
            tree_isomorphic(tree, v, w)
            tree_order_less(tree, v, w)
        for graph in (tree.iso_gadget(), tree.order_gadget(), tree.canon_graph()):
            unpruned = UnprunedGraph(graph)
            for (vx, ell), verdict in list(graph.memo.items()):
                assert x_membership(unpruned, vx, ell) == verdict, (
                    type(graph).__name__, tree.parent, vx, ell)


def test_pruned_memo_engine_matches_streaming_on_canon_graphs():
    # the memo engine decides empty labels without building edges and
    # skips the children of hopeless vertices, the streaming engine walks
    # the whole unravelling: X is the same relation
    for tree in _canon_graph_trees():
        graph = tree.canon_graph()
        for a in range(1, tree.n + 1):
            for b in range(1, tree.n + 1):
                query = (tree.root, a, b)
                assert x_membership(graph, query, tree.n) == streaming_like_reference(
                    graph, query, tree.n
                ), (tree.parent, a, b)


def test_tree_canon_memo_skips_hopeless_vertices():
    # without the label bounds pruning and the a < b sweep this tree left
    # 351,126 entries in the canon graph's memo
    tree = DirectedTree.from_structure(generate_random_tree(100, seed=0))
    canon = tree_canon(tree)
    assert tree_canon_oracle(canon_edges_to_tree(canon, tree.n)) == tree_canon_oracle(tree)
    assert len(tree.canon_graph().memo) < 30_000


def test_canon_graph_tables_match_the_lazy_reference():
    # the tables built with the graph answer every callback as the lazy
    # per-vertex layout did, and a label set never holds two counts
    for tree in _canon_graph_trees():
        graph, ref = tree.canon_graph(), ReferenceCanonGraph(tree)
        for vx in _canon_graph_space(tree):
            assert graph.out_neighbours(vx) == ref.out_neighbours(vx), (tree.parent, vx)
            assert graph.in_degree(vx) == ref.in_degree(vx), (tree.parent, vx)
            assert graph.label_bounds(vx) == ref.label_bounds(vx), (tree.parent, vx)
            for m in range(tree.n + 2):
                assert graph.label_contains(vx, m) == ref.label_contains(vx, m), (
                    tree.parent, vx, m)
            assert len(list(ref.label_counts(vx))) <= 1, (tree.parent, vx)


def test_canon_graph_memo_matches_the_lazy_reference():
    # the reference graph, asked the queries tree_canon asks (for each b,
    # a = b - 1, parent[a], ... up to the first accepted one), memoizes the
    # same verdicts for the same tuples
    for tree in all_trees(7):
        tree_canon(tree)
        ref = ReferenceCanonGraph(tree)
        parent = [None, None]
        for b in range(2, tree.n + 1):
            a = b - 1
            while not x_membership(ref, (tree.root, a, b), tree.n):
                a = parent[a]
            parent.append(a)
        assert tree.canon_graph().memo == ref.memo, tree.parent


@pytest.mark.parametrize("parents, counts", [
    (None, (27, 146, 2_353)),
    ([None] + list(range(39)), (0, 0, 819)),
    ([None] + [0] * 29, (28, 28, 898)),
    ([None] + [(v - 1) // 2 for v in range(1, 47)], (1_246, 24, 577)),
])
def test_tree_canon_memo_sizes_are_pinned(parents, counts):
    # exact work counts that do not move with machine load: a change to
    # any of them changes what the canonisation computes, and must say why
    if parents is None:
        tree = DirectedTree.from_structure(generate_random_tree(100, seed=0))
    else:
        tree = DirectedTree(parents)
    tree_canon(tree)
    graphs = (tree.iso_gadget(), tree.order_gadget(), tree.canon_graph())
    assert tuple(len(g.memo) for g in graphs) == counts


def test_iso_matches_oracle_small_trees():
    for tree in all_trees(6):
        for v in range(tree.n):
            for w in range(tree.n):
                expected = subtree_string(tree, v) == subtree_string(tree, w)
                assert tree_isomorphic(tree, v, w) == expected, (tree.parent, v, w)


def test_iso_soundness_and_completeness_sampled_resources():
    # soundness: membership at any resource implies isomorphism;
    # completeness: size(v)^5 resources always suffice.  Every resource is
    # tried on trees of at most 4 vertices, a grid on the larger ones.
    for tree in all_trees(6):
        gadget = tree.iso_gadget()
        for v in range(tree.n):
            for w in range(tree.n):
                iso = subtree_string(tree, v) == subtree_string(tree, w)
                threshold = tree.size[v] ** 5
                if tree.n <= 4:
                    resources = range(0, threshold + 2)
                else:
                    resources = sorted(
                        {1, 2, 3, 7, 31, threshold // 2, threshold, threshold + 5}
                    )
                for ell in resources:
                    member = x_membership(gadget, (0, v, w, v, w, 0), ell)
                    if member:
                        assert iso
                    if iso and ell >= threshold:
                        assert member


def test_order_matches_direct_comparator():
    for tree in all_trees(6):
        keys = coloured_keys(tree, {})
        for v in range(tree.n):
            for w in range(tree.n):
                expected = keys[v] < keys[w]
                assert tree_order_less(tree, v, w) == expected, (tree.parent, v, w)


def test_order_is_strict_weak_order():
    for tree in all_trees(6):
        n = tree.n
        less = {(v, w): tree_order_less(tree, v, w) for v in range(n) for w in range(n)}
        for v in range(n):
            assert not less[(v, v)]
            for w in range(n):
                if less[(v, w)]:
                    assert not less[(w, v)]
                incomparable = not less[(v, w)] and not less[(w, v)]
                assert incomparable == tree_isomorphic(tree, v, w)
                for x in range(n):
                    if less[(v, w)] and less[(w, x)]:
                        assert less[(v, x)]


def test_repeated_queries_add_no_memo_entry():
    # the gadget memos are the only cache of a verdict: the mirrored
    # isomorphism query and a repeated order query are answered from them
    for tree in all_trees(6):
        iso, order = tree.iso_gadget(), tree.order_gadget()
        for v in range(tree.n):
            for w in range(tree.n):
                tree_isomorphic(tree, v, w)
                entries = len(iso.memo), len(order.memo)
                tree_isomorphic(tree, w, v)
                assert (len(iso.memo), len(order.memo)) == entries, (tree.parent, v, w)
                tree_order_less(tree, v, w)
                entries = len(iso.memo), len(order.memo)
                tree_order_less(tree, v, w)
                assert (len(iso.memo), len(order.memo)) == entries, (tree.parent, v, w)


def test_order_leaf_before_bigger():
    t = DirectedTree([None, 0, 0, 2])  # leaf 1 vs 2-vertex subtree at 2
    assert tree_order_less(t, 1, 2)
    assert not tree_order_less(t, 2, 1)


def test_tree_canon_trivial():
    assert tree_canon(DirectedTree([None])) == ()
    assert tree_canon(DirectedTree([None, 0, 1])) == ((1, 2), (2, 3))


def test_tree_canon_small_trees_complete_invariant():
    canons = {}
    for tree in all_trees(6):
        canon = tree_canon(tree)
        key = tree_canon_oracle(tree)
        if key in canons:
            assert canons[key] == canon
        else:
            canons[key] = canon
        # canonical copy is isomorphic to the input
        assert tree_canon_oracle(canon_edges_to_tree(canon, tree.n)) == key
    # distinct iso classes produce distinct canons
    assert len(set(canons.values())) == len(canons)


def test_tree_canon_relabelling_invariant():
    rng = random.Random(4)
    for tree in all_trees(6):
        canon = tree_canon(tree)
        perm = random_permutation(tree.n, rng)
        assert tree_canon(permute_tree(tree, perm)) == canon


def _bench_trees():
    """The trees of the benchmark's `TREE_SPECS`, made by its generators,
    the random ones at the seeds 0-3 of its items."""
    sys.path.insert(0, str(BENCH))
    try:
        import gen
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    for family, sizes in workloads.TREE_SPECS.items():
        for size in sizes:
            if family == "random":
                shapes = [gen.random_tree(size, random.Random(f"{seed}:tree:random:{size}"))
                          for seed in range(4)]
            elif family == "spider":
                shapes = [gen.spider_tree(*size)]
            else:
                shapes = [getattr(gen, f"{family}_tree")(size)]
            for edges in shapes:
                parents = [None] * (len(edges) + 1)
                for a, b in edges:
                    parents[b] = a
                yield DirectedTree(parents)


def test_tree_canon_matches_the_all_pairs_reference():
    # asking one parent per vertex finds the edges that asking every
    # pair a < b finds
    for tree in [*all_trees(9), *_bench_trees()]:
        assert tree_canon(tree) == reference_tree_canon(tree), tree.parent


def _flip_canon_verdict(tree, a, b):
    """Corrupt the canon graph: its memo answers the edge query (a, b) of
    the copy the other way."""
    graph, query = tree.canon_graph(), (tree.root, a, b)
    graph.memo[(query, tree.n)] = not x_membership(graph, query, tree.n)


@pytest.mark.parametrize("flip, message", [
    ((1, 3), "gives vertex 3 no parent"),  # (2, 3) and (1, 3) both rejected
    ((1, 4), "gives vertex 4 no parent"),  # (3, 4), then (1, 4): 2 is off the path
    ((2, 3), "not isomorphic"),  # 3 under 2: a preorder copy, not a star
])
def test_tree_canon_rejects_a_corrupted_copy(flip, message):
    # the copy of a root with three leaves is 1 -> 2, 1 -> 3, 1 -> 4
    star = DirectedTree([None, 0, 0, 0])
    _flip_canon_verdict(star, *flip)
    with pytest.raises(LimrecError, match=message):
        tree_canon(star)


def test_canonical_copy_check_rejects_a_numbering_out_of_preorder():
    # the walk up the rightmost path only builds copies in preorder, so
    # the check is called on 1 -> 2 -> 4, 1 -> 3 directly
    with pytest.raises(LimrecError, match="not numbered in preorder"):
        _check_canonical_copy(DirectedTree([None, 0, 0, 0]), [None, None, 1, 1, 2])


def test_tree_canon_asks_at_most_2n_minus_3_edge_queries(monkeypatch):
    # each rejected a leaves the copy's rightmost path for good
    queries = []

    def counting(graph, vertex, resource):
        if isinstance(graph, _CanonGraph):
            queries.append(vertex)
        return x_membership(graph, vertex, resource)

    monkeypatch.setattr(treelogic, "x_membership", counting)
    for tree in [*all_trees(9), *_bench_trees()]:
        queries.clear()
        tree_canon(tree)
        assert len(queries) <= max(0, 2 * tree.n - 3), tree.parent


def test_tree_canon_structure_roundtrip():
    t = DirectedTree.from_structure(generate_random_tree(9, seed=11))
    canon = tree_canon(t)
    assert tree_canon_oracle(canon_edges_to_tree(canon, t.n)) == tree_canon_oracle(t)


def test_canonical_string_examples():
    assert tree_canon_oracle(DirectedTree([None])) == "()"
    assert tree_canon_oracle(DirectedTree([None, 0, 0])) == "(()())"


def test_iso_on_fifty_node_disjoint_unions():
    # two random 50-vertex trees under a fresh root: the recursion-graph
    # verdict on the pair of subtree roots agrees with string equality
    rng = random.Random(9)

    def rand_parents(n):
        return [None] + [rng.randrange(v) for v in range(1, n)]

    for trial in range(6):
        n = 50
        p1 = rand_parents(n)
        if trial % 2:
            p2 = rand_parents(n)
        else:
            perm = random_permutation(n, rng)
            p2 = [None] * n
            for v, p in enumerate(p1):
                p2[perm[v]] = None if p is None else perm[p]
        root2 = p2.index(None)
        parents = [None]
        parents += [0 if p is None else p + 1 for p in p1]
        off = 1 + n
        parents += [0 if p is None else p + off for p in p2]
        tree = DirectedTree(parents)
        left, right = 1, off + root2
        expected = subtree_string(tree, left) == subtree_string(tree, right)
        assert (trial % 2 == 0) == expected
        assert tree_isomorphic(tree, left, right) == expected


# --- coloured order --------------------------------------------------------


def _random_coloured_tree(rng, max_n=8):
    n = rng.randint(1, max_n)
    parents = [None] + [rng.randrange(v) for v in range(1, n)]
    tree = DirectedTree(parents)
    colours = {}
    for v in range(n):
        if rng.random() < 0.7:
            pairs = sorted(
                (rng.randint(0, 3), rng.randint(0, 3))
                for _ in range(rng.randint(1, 2))
            )
            colours[v] = tuple(pairs)
    return tree, colours


def test_coloured_compare_identical_subtrees():
    tree = DirectedTree([None, 0, 0])
    colours = {1: ((1, 1),), 2: ((1, 1),)}
    keys = coloured_keys(tree, colours)
    assert keys[1] == keys[2]


def test_coloured_compare_colour_decides():
    tree = DirectedTree([None, 0, 0])
    colours = {1: ((0, 1),), 2: ((1, 1),)}
    keys = coloured_keys(tree, colours)
    assert keys[1] < keys[2]
    assert keys[2] > keys[1]


def test_coloured_compare_matches_brute_iso():
    rng = random.Random(21)
    for _ in range(150):
        tree, colours = _random_coloured_tree(rng)
        keys = coloured_keys(tree, colours)
        for a in range(tree.n):
            for b in range(tree.n):
                same = keys[a] == keys[b]
                expected = coloured_canonical_form(
                    tree, colours, a
                ) == coloured_canonical_form(tree, colours, b)
                assert same == expected


def test_coloured_compare_deep_equal_chains():
    # two 1,500-vertex chains under one root: no recursion on depth
    parents = [None, 0] + list(range(1, 1500)) + [0] + list(range(1501, 3000))
    tree = DirectedTree(parents)
    keys = coloured_keys(tree, {})
    assert keys[1] == keys[1501]


def test_coloured_compare_plain_matches_gadget_order():
    for tree in all_trees(5):
        keys = coloured_keys(tree, {})
        for v in range(tree.n):
            for w in range(tree.n):
                assert (keys[v] < keys[w]) == tree_order_less(tree, v, w)


# --- circuits --------------------------------------------------------------


def test_circuit_fixture_value(circuit=None):
    structure = Structure.parse((DATA / "circuit_small.struct").read_text())
    assert circuit_value(structure) is True
    assert circuit_value_oracle(structure) is True


def test_circuit_single_constant():
    s = Structure.parse(
        "vocab E/2 Pand/1 Por/1 Pnot/1 P0/1 P1/1\nuniverse 1\nP1 0\n"
    )
    assert circuit_value(s) is True
    s0 = Structure.parse(
        "vocab E/2 Pand/1 Por/1 Pnot/1 P0/1 P1/1\nuniverse 1\nP0 0\n"
    )
    assert circuit_value(s0) is False


def test_circuit_path_property_violation():
    # diamond stack: in-degree products 2*2 = 4 > |C| = 3 is impossible with
    # 3 gates, so build a tighter witness: two gates feeding one child twice
    # is not representable with simple edges; use a 4-gate ladder instead
    s = Structure.parse(
        "vocab E/2 Pand/1 Por/1 Pnot/1 P0/1 P1/1\n"
        "universe 6\nnames a b c d e f\n"
        "E a b\nE a c\nE b d\nE c d\nE d e\nE d f\n"
        "Pand a\nPand b\nPand c\nPand d\nP1 e\nP1 f\n"
    )
    # paths a-b-d and a-c-d give in-degree product 2 at d; fine for |C|=6;
    # shrink the universe is impossible, so force violation via deeper nesting
    assert check_path_property(s) <= 6
    deep = ["vocab E/2 Pand/1 Por/1 Pnot/1 P0/1 P1/1", "universe 8",
            "names a b c d e f g h"]
    for x, ys in (("a", "bc"), ("b", "d"), ("c", "d"), ("d", "ef"),
                  ("e", "g"), ("f", "g"), ("g", "h")):
        deep.extend(f"E {x} {y}" for y in ys)
    deep.extend(f"Pand {v}" for v in "abcdefg")
    deep.append("P1 h")
    s2 = Structure.parse("\n".join(deep))
    # products: d has in-degree 2, g has in-degree 2, h in-degree 1 -> 4 <= 8
    assert check_path_property(s2) <= 8
    with pytest.raises(RecognitionError):
        tight = [
            "vocab E/2 Pand/1 Por/1 Pnot/1 P0/1 P1/1", "universe 5",
            "names a b c d e",
            "E a b", "E a c", "E b d", "E c d", "E d e",
            "Pand a", "Pand b", "Pand c", "Pand d", "P1 e",
        ]
        # a->(b,c)->d->e: path product at d is 2, at e 1 -> 2 <= 5 passes;
        # add parallel joint to push product to 2*2 > 5 via another diamond
        tight += ["E b e", "E c e"]
        # now e has in-degree 3: product along a-b-e is 3; a-b-d-e: 2*3=6 > 5
        check_path_property(Structure.parse("\n".join(tight)))


def test_path_property_certificate_is_the_worst_path():
    tight = Structure.parse(
        "vocab E/2 Pand/1 Por/1 Pnot/1 P0/1 P1/1\nuniverse 5\nnames a b c d e\n"
        "E a b\nE a c\nE b d\nE c d\nE d e\nE b e\nE c e\n"
        "Pand a\nPand b\nPand c\nPand d\nP1 e\n"
    )
    with pytest.raises(RecognitionError) as err:
        check_path_property(tight)
    # product along a-b-d-e (or a-c-d-e): in-degrees 1 * 2 * 3 = 6 > 5
    assert err.value.certificate in ((0, 1, 3, 4), (0, 2, 3, 4))


def test_deep_chain_and_path_need_no_recursion():
    n = 3000
    chain = not_chain(n)
    assert check_path_property(chain) == 1
    assert circuit_value_oracle(chain) is False  # 2999 negations of true
    path = DirectedTree([None] + list(range(n - 1)))
    assert subtree_string(path, 0) == "(" * n + ")" * n
    assert tree_canon_oracle(path) == subtree_string(path, 0)


def test_circuit_random_tree_shaped_matches_oracle():
    for seed in range(60):
        s = generate_random_circuit(15, seed=seed)
        assert circuit_value(s) == circuit_value_oracle(s), seed


def test_circuit_rejects_malformed():
    with pytest.raises(DomainError):
        circuit_value(
            Structure.parse(
                "vocab E/2 Pand/1 Por/1 Pnot/1 P0/1 P1/1\nuniverse 2\nE 0 1\nPand 0\n"
            )
        )  # gate 1 untyped
    with pytest.raises(DomainError):
        circuit_value(
            Structure.parse(
                "vocab E/2 Pand/1 Por/1 Pnot/1 P0/1 P1/1\n"
                "universe 3\nE 0 1\nE 0 2\nPnot 0\nP1 1\nP1 2\n"
            )
        )  # negation with two children
