import random
from pathlib import Path

import pytest

from limrec.errors import DomainError, RecognitionError
from limrec.structures import (
    CIRCUIT_VOCAB, Structure, generate_random_circuit, generate_random_tree,
)
from limrec.treelogic import (
    DirectedTree, build_iso_gadget, build_order_gadget, canon_edges_to_tree,
    check_path_property, circuit_value, circuit_value_oracle,
    coloured_compare, profile_order_direct, subtree_string, tree_canon,
    tree_canon_oracle, tree_isomorphic, tree_order_less,
)

from .helpers import (
    all_trees, coloured_canonical_form, permute_tree, random_permutation,
    reference_dense_profile, tree_shapes,
)

DATA = Path(__file__).parent / "data"


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
    assert t.to_structure().rel("E") == {(0, 1), (1, 2)}


def test_profile_invariant():
    # the size-indexed child counts always sum back to size - 1
    for tree in all_trees(7):
        for v in range(tree.n):
            profile = tree.profile(v)
            assert profile[0] == tree.size[v]
            assert sum(-neg_s * c for neg_s, c in profile[1:]) == tree.size[v] - 1


def test_compact_profiles_order_like_dense():
    for tree in all_trees(7):
        for v in range(tree.n):
            for w in range(tree.n):
                pv, pw = tree.profile(v), tree.profile(w)
                dv, dw = reference_dense_profile(tree, v), reference_dense_profile(tree, w)
                assert (pv == pw) == (dv == dw), (tree.parent, v, w)
                assert (pv < pw) == (dv < dw), (tree.parent, v, w)


def test_profiles_linear_size_on_deep_chains():
    # the dense profiles of two 1,500-vertex chains hold 2,254,501 entries
    parents = [None, 0] + list(range(1, 1500)) + [0] + list(range(1501, 3000))
    tree = DirectedTree(parents)
    assert sum(len(p) for p in tree.tables().profile) <= 3 * tree.n


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


def test_gadget_builders_reject_small_trees():
    with pytest.raises(DomainError):
        build_iso_gadget(DirectedTree([None, 0]))
    with pytest.raises(DomainError):
        build_order_gadget(DirectedTree([None]))


def test_iso_gadget_in_degree_shape():
    # every reachable non-type-0 vertex has in-degree exactly one
    for tree in all_trees(6):
        gadget = tree.tables().iso_gadget()
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
        if tree.n < 4:
            continue
        gadget = builder(tree)
        roots = [(0, v, w, v, w, 0) for v in range(tree.n) for w in range(tree.n)]
        _, indeg = _reachable_edge_counts(gadget, roots)
        for vx, count in indeg.items():
            assert gadget.in_degree(vx) == count, (tree.parent, vx)


def test_canon_graph_in_degrees_match_edge_scan():
    # every tuple of the space is a vertex whether or not a root query
    # reaches it, so scan the edges of the entire space; the star, the
    # 3x3 spider and the complete binary tree add classes of three or
    # more copies, blocks wider than one vertex and copies shifted past n
    star = DirectedTree([None] + [0] * 9)
    spider = DirectedTree([None, 0, 1, 2, 0, 4, 5, 0, 7, 8])
    binary = DirectedTree([None] + [(v - 1) // 2 for v in range(1, 15)])
    for tree in [*all_trees(6), star, spider, binary]:
        graph = tree.tables().canon_graph()
        top = tree.n
        everything = [
            (v, a, b)
            for v in range(tree.n)
            for a in range(top + 1)
            for b in range(top + 1)
        ]
        indeg = {}
        for vx in everything:
            for nxt in graph.out_neighbours(vx):
                indeg[nxt] = indeg.get(nxt, 0) + 1
        for vx in everything:
            assert graph.in_degree(vx) == indeg.get(vx, 0), (tree.parent, vx)


def test_iso_matches_oracle_small_trees():
    for tree in all_trees(6):
        for v in range(tree.n):
            for w in range(tree.n):
                expected = subtree_string(tree, v) == subtree_string(tree, w)
                assert tree_isomorphic(tree, v, w) == expected, (tree.parent, v, w)


def test_iso_soundness_and_completeness_sampled_resources():
    # soundness: membership at any resource implies isomorphism;
    # completeness: size(v)^5 resources always suffice.  Every resource is
    # tried on 4-vertex trees, a grid on the larger ones.
    from limrec.evaluator import x_membership

    for tree in all_trees(6):
        if tree.n < 4:
            continue
        gadget = tree.tables().iso_gadget()
        for v in range(tree.n):
            for w in range(tree.n):
                iso = subtree_string(tree, v) == subtree_string(tree, w)
                threshold = tree.size[v] ** 5
                if tree.n == 4:
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
        for v in range(tree.n):
            for w in range(tree.n):
                expected = profile_order_direct(tree, v, w) < 0
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
    assert coloured_compare(tree, colours, 1, 2) == 0


def test_coloured_compare_colour_decides():
    tree = DirectedTree([None, 0, 0])
    colours = {1: ((0, 1),), 2: ((1, 1),)}
    assert coloured_compare(tree, colours, 1, 2) == -1
    assert coloured_compare(tree, colours, 2, 1) == 1


def test_coloured_compare_matches_brute_iso():
    rng = random.Random(21)
    for _ in range(150):
        tree, colours = _random_coloured_tree(rng)
        for a in range(tree.n):
            for b in range(tree.n):
                same = coloured_compare(tree, colours, a, b) == 0
                expected = coloured_canonical_form(
                    tree, colours, a
                ) == coloured_canonical_form(tree, colours, b)
                assert same == expected


def test_coloured_compare_deep_equal_chains():
    # two 1,500-vertex chains under one root: no recursion on depth
    parents = [None, 0] + list(range(1, 1500)) + [0] + list(range(1501, 3000))
    tree = DirectedTree(parents)
    assert coloured_compare(tree, {}, 1, 1501) == 0


def test_coloured_compare_plain_matches_gadget_order():
    for tree in all_trees(5):
        for v in range(tree.n):
            for w in range(tree.n):
                assert (coloured_compare(tree, {}, v, w) < 0) == tree_order_less(tree, v, w)


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
    chain = Structure(CIRCUIT_VOCAB, n, {
        "E": {(g, g + 1) for g in range(n - 1)},
        "Pnot": {(g,) for g in range(n - 1)},
        "P1": {(n - 1,)},
    })
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
