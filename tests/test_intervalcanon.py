import itertools
import random

import numpy as np
import pytest

from limrec import intervalcanon
from limrec.errors import RecognitionError
from limrec.intervalcanon import (
    Graph, build_modular_tree, canon_L, clique_preorder, clique_witness,
    collapse_incomparables, coloured_tree_preorder, decomposition_components,
    interval_canon, interval_model, is_interval_graph, max_cliques,
    modular_partition, possible_ends, span, span_map,
)
from limrec.structures import generate_random_interval_graph

from .helpers import (
    graph_iso, graphs_up_to_iso, graphs_up_to_iso_all, mask_to_edges,
    reference_asymmetric, reference_decomposition_components,
    reference_possible_ends,
)


def graph_from_intervals(spans):
    """Vertices are keys of spans; edge when closed intervals intersect."""
    keys = sorted(spans)
    edges = []
    for a, b in itertools.combinations(keys, 2):
        la, ra = spans[a]
        lb, rb = spans[b]
        if la <= rb and lb <= ra:
            edges.append((a, b))
    return Graph(keys, edges), keys


# the worked 20-vertex example with eleven max-clique columns
MODULAR_SPANS = {
    "a": (0, 0), "b": (0, 3), "c": (1, 9), "d": (6, 10), "e": (10, 10),
    "f": (1, 1), "g": (2, 2), "h": (2, 3), "j": (3, 3),
    "k": (4, 5), "l": (4, 5), "m": (4, 4), "n": (5, 5),
    "o": (6, 8), "p": (7, 9), "q": (7, 9), "r": (9, 9),
    "s": (6, 6), "t": (7, 7), "u": (8, 8),
}

# the worked 10-vertex interval representation example
SMALL_SPANS = {
    "a": (7, 17), "b": (1, 10), "c": (12, 15), "d": (16, 18), "e": (6, 9),
    "f": (3, 5), "g": (7, 8), "h": (11, 14), "i": (4, 8), "k": (13, 14),
}


def _relabel(g: Graph, perm):
    mapping = {v: perm[i] for i, v in enumerate(g.vertices)}
    return Graph(
        [mapping[v] for v in g.vertices],
        [(mapping[a], mapping[b]) for a, b in g.edges()],
    )


def _int_graph(g: Graph):
    """Relabel arbitrary hashable vertices to 0..n-1."""
    order = {v: i for i, v in enumerate(g.vertices)}
    return Graph(range(g.n), [(order[a], order[b]) for a, b in g.edges()])


# --- max cliques ------------------------------------------------------------


def test_representative_enumeration_counts():
    # known counts of unlabelled graphs: all / connected / connected interval
    assert [len(graphs_up_to_iso_all(n, np)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]
    assert [len(graphs_up_to_iso(n, np)) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]
    counts = []
    for n in range(1, 7):
        counts.append(
            sum(
                1
                for m in graphs_up_to_iso(n, np)
                if is_interval_graph(Graph(range(n), mask_to_edges(m, n)))
            )
        )
    assert counts == [1, 1, 2, 5, 15, 56]


def test_max_cliques_triangle_and_path():
    tri = Graph(range(3), [(0, 1), (1, 2), (0, 2)])
    assert max_cliques(tri) == [frozenset({0, 1, 2})]
    path = Graph(range(3), [(0, 1), (1, 2)])
    assert max_cliques(path) == [frozenset({0, 1}), frozenset({1, 2})]


def _brute_max_cliques(g: Graph):
    verts = list(g.vertices)
    cliques = []
    for bits in range(1, 1 << g.n):
        subset = [verts[i] for i in range(g.n) if bits >> i & 1]
        if g.is_clique_set(subset):
            cliques.append(frozenset(subset))
    return sorted(
        (c for c in cliques if not any(c < d for d in cliques)),
        key=lambda c: tuple(sorted(c, key=str)),
    )


def test_max_cliques_match_subset_enumerator_on_interval_graphs():
    # pair-derived cliques equal full subset enumeration on interval graphs
    from limrec.structures import generate_random_interval_graph

    checked = 0
    for n in range(2, 7):
        for mask in graphs_up_to_iso(n, np):
            g = Graph(range(n), mask_to_edges(mask, n))
            if is_interval_graph(g):
                assert sorted(max_cliques(g), key=_ckey_str) == sorted(
                    _brute_max_cliques(g), key=_ckey_str
                )
                checked += 1
    for seed in range(60):
        g = Graph.from_structure(generate_random_interval_graph(8, seed=seed))
        assert sorted(max_cliques(g), key=_ckey_str) == sorted(
            _brute_max_cliques(g), key=_ckey_str
        )
    assert checked > 50


def _ckey_str(c):
    return tuple(sorted(c, key=str))


def test_max_cliques_modular_example_has_eleven():
    g, _ = graph_from_intervals(MODULAR_SPANS)
    assert len(max_cliques(g)) == 11


def test_clique_witness_roundtrip():
    g, _ = graph_from_intervals(SMALL_SPANS)
    for c in max_cliques(g):
        u, v = clique_witness(g, c)
        closed_u = g.adj[u] | {u}
        closed_v = g.adj[v] | {v}
        assert closed_u & closed_v == c


def test_span_examples():
    path = Graph(range(3), [(0, 1), (1, 2)])
    assert span(path, 1) == 2
    assert span(path, 0) == 1
    g, _ = graph_from_intervals(SMALL_SPANS)
    # vertex a crosses three of the four max cliques
    assert len(max_cliques(g)) == 4
    assert span(g, "a") == 3


# --- clique preorder and ends ----------------------------------------------


def test_preorder_two_clique_path():
    g = Graph(range(3), [(0, 1), (1, 2)])
    cliques = max_cliques(g)
    pre = clique_preorder(g, frozenset({0, 1}), cliques)
    assert pre.asymmetric
    i = cliques.index(frozenset({0, 1}))
    j = cliques.index(frozenset({1, 2}))
    assert (i, j) in pre.pairs and (j, i) not in pre.pairs


def test_preorder_star_incomparable_leaf_cliques():
    g = Graph(range(4), [(0, 1), (0, 2), (0, 3)])
    cliques = max_cliques(g)
    m = frozenset({0, 1})
    pre = clique_preorder(g, m, cliques)
    assert pre.asymmetric
    other = [cliques.index(c) for c in cliques if c != m]
    a, b = other
    assert (a, b) not in pre.pairs and (b, a) not in pre.pairs
    # the two leaf cliques collapse into a module of two leaves
    col = collapse_incomparables(g, m, cliques)
    merged = [v for v in col.graph.vertices if isinstance(v, frozenset)]
    assert merged == [frozenset({2, 3})]


def test_possible_ends_examples():
    path = Graph(range(3), [(0, 1), (1, 2)])
    assert len(possible_ends(path)) == 2
    comp = Graph(range(4), [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert possible_ends(comp) == [frozenset(range(4))]


# --- permutation oracle ------------------------------------------------------


def _consecutive_orders(cliques):
    vertices = set().union(*cliques) if cliques else set()
    orders = []
    for perm in itertools.permutations(range(len(cliques))):
        ok = True
        for v in vertices:
            positions = [p for p, i in enumerate(perm) if v in cliques[i]]
            if positions and positions[-1] - positions[0] + 1 != len(positions):
                ok = False
                break
        if ok:
            orders.append([cliques[i] for i in perm])
    return orders


def _oracle_first_cliques(g):
    cliques = max_cliques(g)
    return {tuple(sorted(order[0])) for order in _consecutive_orders(cliques)}


def _connected_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = {pairs[i] for i in range(len(pairs)) if bits >> i & 1}
        g = Graph(range(n), edges)
        if g.is_connected():
            yield g


def test_possible_ends_match_permutation_oracle_exhaustive():
    for n in range(1, 6):
        for g in _connected_graphs(n):
            cliques = max_cliques(g)
            oracle_orders = _consecutive_orders(cliques)
            if not oracle_orders:
                # not an interval graph (as far as these cliques go)
                continue
            got = {tuple(sorted(m)) for m in possible_ends(g, cliques)}
            assert got == _oracle_first_cliques(g), g.edges()


def test_strict_weak_order_iff_possible_end_exhaustive():
    for n in range(2, 6):
        for g in _connected_graphs(n):
            cliques = max_cliques(g)
            if not _consecutive_orders(cliques):
                continue
            firsts = _oracle_first_cliques(g)
            for m in cliques:
                pre = clique_preorder(g, m, cliques)
                assert pre.asymmetric == (tuple(sorted(m)) in firsts)


def test_early_exit_preorder_matches_full_fixpoint_exhaustive():
    # non-interval graphs included: their starts are the ones cut short
    for n in range(1, 7):
        for g in _connected_graphs(n):
            cliques = max_cliques(g)
            for start, m in enumerate(cliques):
                try:
                    got = clique_preorder(g, m, cliques).asymmetric
                except RecognitionError:
                    got = True  # raised only after the order proved asymmetric
                assert got == reference_asymmetric(cliques, start), (g.edges(), m)


# --- incomparability classes span modules ------------------------------------


def _is_module(g, ws):
    return g.is_module(ws)


def test_incomparability_classes_yield_modules_exhaustive():
    for n in range(2, 7):
        for g in _connected_graphs(n):
            cliques = max_cliques(g)
            if not _consecutive_orders(cliques):
                continue
            spans = span_map(g, cliques)
            for m in possible_ends(g, cliques):
                pre = clique_preorder(g, m, cliques)
                for group in pre.classes:
                    union = set().union(*(cliques[i] for i in group))
                    outside = set().union(
                        *(cliques[i] for i in range(len(cliques)) if i not in group)
                    ) if len(group) < len(cliques) else set()
                    direct = union - outside
                    via_span = {v for v in union if spans[v] <= len(group)}
                    assert direct == via_span
                    assert _is_module(g, direct) or not direct


def test_quotients_of_all_ends_isomorphic_exhaustive():
    # the collapsed quotient is independent of the chosen end
    for n in range(2, 7):
        for g in _connected_graphs(n):
            if g.apices() or not is_interval_graph(g):
                continue
            cliques = max_cliques(g)
            ends = possible_ends(g, cliques)
            quotients = []
            for m in ends:
                first = collapse_incomparables(g, m, cliques)
                z = first.clique_order[-1]
                second = collapse_incomparables(first.graph, z, first.clique_order)
                quotients.append(_int_graph(second.graph))
            for q in quotients[1:]:
                assert graph_iso(
                    quotients[0].edges(), q.edges(), quotients[0].n, q.n
                )


def test_collapse_identity_when_linear():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    col = collapse_incomparables(g, frozenset({0, 1}))
    assert col.graph.n == g.n
    assert [sorted(c, key=str) for c in col.clique_order] == [
        [0, 1], [1, 2], [2, 3],
    ]


# --- decomposition components (P sets) ---------------------------------------


def _brute_cell_partition(g, cliques):
    """Maximal proper clique subsets whose members look alike from outside."""
    m = len(cliques)

    def good(subset):
        rest = [i for i in range(m) if i not in subset]
        for b in rest:
            views = {frozenset(cliques[b] & cliques[i]) for i in subset}
            if len(views) > 1:
                return False
        return True

    cells = []
    assigned = set()
    for i in range(m):
        if i in assigned:
            continue
        best = None
        for size in range(m - 1, 0, -1):
            for subset in itertools.combinations(range(m), size):
                if i in subset and good(set(subset)):
                    best = set(subset)
                    break
            if best is not None:
                break
        assert best is not None
        cells.append(best)
        assigned |= best
    return cells


def _oracle_decomposition_sets(g):
    """Components of decomposition modules, by direct recursion."""
    result = set()

    def wg_cells(h):
        if h.n <= 1:
            return []
        apices = h.apices()
        if apices:
            rest = frozenset(v for v in h.vertices if v not in apices)
            cells = [frozenset({a}) for a in apices]
            if rest:
                cells.append(rest)
            return cells
        cliques = max_cliques(h)
        big = []
        for cell in _brute_cell_partition(h, cliques):
            if len(cell) < 2:
                continue
            union = set().union(*(cliques[i] for i in cell))
            outside = set().union(
                *(cliques[i] for i in range(len(cliques)) if i not in cell)
            )
            s_set = frozenset(union - outside)
            if s_set:
                big.append(s_set)
        covered = set().union(*big) if big else set()
        cells = list(big)
        cells.extend(frozenset({v}) for v in h.vertices if v not in covered)
        return cells

    def walk(wset, parent_connected):
        h = g.subgraph(wset)
        is_decomp = parent_connected and len(wset) >= 1
        if is_decomp:
            for comp in h.components():
                result.add(comp)
        if len(wset) == 1:
            return
        if not h.is_connected():
            for comp in h.components():
                walk(comp, parent_connected=False)
            return
        for cell in wg_cells(h):
            if len(cell) > 1:
                walk(cell, parent_connected=True)

    whole = frozenset(g.vertices)
    result.update(g.components())
    sub = g
    if g.is_connected():
        walk(whole, parent_connected=True)
    else:
        for comp in g.components():
            walk(comp, parent_connected=False)
    return result


def test_decomposition_components_whole_graph_present():
    g = Graph(range(3), [(0, 1), (1, 2)])
    p = decomposition_components(g)
    assert any(comp == frozenset(range(3)) for _, _, comp in p)
    # connected graph: (M, |V|) survives for every max clique
    whole = frozenset(range(3))
    tops = {M for M, bound, comp in p if comp == whole and bound == 3}
    assert tops == set(max_cliques(g))


def test_modular_partition_path_all_singletons():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    part = modular_partition(g)
    assert part.modules == []
    assert all(len(cell) == 1 for cell in part.cells)
    assert all(len(cls) == 1 for cls in part.vertex_class.values())


def test_decomposition_matches_recursive_oracle_exhaustive():
    for n in range(1, 7):
        for g in _connected_graphs(n):
            if not is_interval_graph(g):
                continue
            got = {comp for _, _, comp in decomposition_components(g)}
            assert got == _oracle_decomposition_sets(g), sorted(g.edges())


def _band(n, width):
    return Graph(range(n), [(a, b) for a in range(n) for b in range(a + 1, min(n, a + width + 1))])


def _differential_graphs():
    for n, seed in ((20, 1), (30, 2), (40, 3), (50, 4), (60, 5)):
        yield Graph.from_structure(generate_random_interval_graph(n, seed=seed))
    for n in (15, 25):
        yield _band(n, 1)  # a path
        yield _band(n, 2)


def _partition_fields(part):
    return (
        part.cells, part.modules, part.vertex_class, part.quotient.vertices,
        part.quotient.adj, part.clique_order, part.clique_position,
    )


def test_sweep_and_first_end_match_reference_loops(monkeypatch):
    for g in _differential_graphs():
        assert decomposition_components(g) == reference_decomposition_components(g)
        parts = {}
        for comp in g.components():
            h = g.subgraph(comp)
            if h.n >= 2 and not h.apices():
                parts[comp] = _partition_fields(modular_partition(h))
        canon = interval_canon(g)
        with monkeypatch.context() as patch:
            patch.setattr(intervalcanon, "_possible_ends", reference_possible_ends)
            patch.setattr(
                intervalcanon, "decomposition_components", reference_decomposition_components
            )
            for comp, fields in parts.items():
                assert _partition_fields(modular_partition(g.subgraph(comp))) == fields
            assert interval_canon(g) == canon


def test_one_preorder_per_graph_and_start(monkeypatch):
    g = Graph.from_structure(generate_random_interval_graph(40, seed=3))
    calls = []
    original = intervalcanon.clique_preorder

    def counting(G, M, cliques=None):
        calls.append((frozenset(G.vertices), frozenset(G.edges()), M))
        return original(G, M, cliques)

    monkeypatch.setattr(intervalcanon, "clique_preorder", counting)
    interval_canon(g)
    assert len(calls) == len(set(calls)) == 10


# --- canon_L -----------------------------------------------------------------


def test_canon_L_single_clique():
    g = Graph(range(3), [(0, 1), (1, 2), (0, 2)])
    info = canon_L(g)
    assert info.m == 1
    assert info.size == 3
    assert info.edges == frozenset({(1, 2), (1, 3), (2, 3)})


def test_canon_L_p4_palindromic():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    info = canon_L(g)
    assert info.palindromic
    assert info.m == 3
    assert info.size == 4
    assert not info.modules


def test_canon_L_isomorphic_to_quotient_exhaustive():
    for n in range(2, 7):
        for g in _connected_graphs(n):
            if g.apices() or not is_interval_graph(g):
                continue
            part = modular_partition(g)
            info = canon_L(g)
            quotient = _int_graph(part.quotient)
            canon_edges = {(u - 1, v - 1) for u, v in info.edges}
            assert graph_iso(canon_edges, quotient.edges(), info.size, quotient.n)


# --- the worked modular-decomposition example --------------------------------


def test_modular_example_module_colours():
    g, _ = graph_from_intervals(MODULAR_SPANS)
    tree = build_modular_tree(g)
    comp_nodes = [i for i, k in enumerate(tree.kinds) if k == "component"]
    top = [i for i in comp_nodes if tree.parents[i] == 0]
    assert len(top) == 1
    arrangements = tree.children(top[0])
    assert len(arrangements) == 3
    module_sets = {
        frozenset(tree.module_set[m]): tree.module_record[m].colour
        for a in arrangements
        for m in tree.children(a)
    }
    assert module_sets == {
        frozenset("fghj"): (2, 4),
        frozenset("klmn"): (3, 3),
        frozenset({"o", "p", "q", "r", "s", "t", "u"}): (2, 4),
    }
    colours = sorted(
        tree.module_record[m].colour
        for m, k in enumerate(tree.kinds)
        if k == "module"
    )
    assert colours == [(1,), (1,), (2,), (2, 4), (2, 4), (3, 3)]
    for v in range(len(tree.parents)):
        assert tree.children(v) == [w for w, p in enumerate(tree.parents) if p == v]


def test_modular_example_clique_positions():
    g, _ = graph_from_intervals(MODULAR_SPANS)
    info = canon_L(g)
    assert info.m == 5
    assert info.palindromic
    by_clique = {frozenset(c): pos for c, pos in info.clique_colour.items()}
    # the outermost cliques sit at mirrored extremes, the twin-pendant cell
    # in the exact middle
    assert by_clique[frozenset("ab")] == (1, 5)
    assert by_clique[frozenset("de")] == (1, 5)
    assert by_clique[frozenset("cklm")] == (3, 3)
    assert by_clique[frozenset("ckln")] == (3, 3)
    assert by_clique[frozenset("bcf")] == (2, 4)
    assert by_clique[frozenset("cdos")] == (2, 4)


def test_modular_example_deep_modules():
    g, _ = graph_from_intervals(MODULAR_SPANS)
    tree = build_modular_tree(g)
    module_sets = {
        frozenset(tree.module_set[m])
        for m, k in enumerate(tree.kinds)
        if k == "module"
    }
    assert frozenset("gj") in module_sets
    assert frozenset("mn") in module_sets
    assert frozenset("tu") in module_sets


def test_complete_graph_tree_shape():
    g = Graph(range(4), [(a, b) for a in range(4) for b in range(a + 1, 4)])
    tree = build_modular_tree(g)
    assert tree.kinds.count("component") == 1
    assert tree.kinds.count("module") == 0
    node = tree.kinds.index("component")
    assert tree.colours[node] == tuple(
        sorted((a, b) for a in range(1, 5) for b in range(a + 1, 5))
    )


# --- coloured tree preorder ---------------------------------------------------


def _tree_invariant(tree):
    """Canonical nested form of the coloured decomposition tree."""
    from .helpers import coloured_canonical_form

    return coloured_canonical_form(tree.as_directed_tree(), tree.colours, 0)


def test_modular_tree_complete_invariant_small():
    # coloured decomposition trees are isomorphic exactly for isomorphic
    # interval graphs; checked across representatives and relabellings
    rng = random.Random(31)
    forms = {}
    for n in range(1, 7):
        for mask in graphs_up_to_iso(n, np):
            g = Graph(range(n), mask_to_edges(mask, n))
            if not is_interval_graph(g):
                continue
            form = _tree_invariant(build_modular_tree(g))
            key = (n, form)
            assert key not in forms, "distinct graphs share a coloured tree"
            forms[key] = mask
            perm = list(range(n))
            rng.shuffle(perm)
            relabelled_form = _tree_invariant(build_modular_tree(_relabel(g, perm)))
            assert relabelled_form == form


def test_coloured_tree_preorder_on_modular_tree():
    g, _ = graph_from_intervals(MODULAR_SPANS)
    tree = build_modular_tree(g)
    for v, kind in enumerate(tree.kinds):
        assert coloured_tree_preorder(tree, v, v) == 0
    mods = [i for i, k in enumerate(tree.kinds) if k == "module"]
    low = next(i for i in mods if tree.module_record[i].colour == (1,))
    high = next(i for i in mods if tree.module_record[i].colour == (3, 3))
    assert coloured_tree_preorder(tree, low, high) != 0


# --- full canonisation ---------------------------------------------------------


def test_interval_canon_trivial():
    assert interval_canon(Graph([0], [])) == (1, ())
    n, edges = interval_canon(Graph(range(3), [(0, 1), (1, 2), (0, 2)]))
    assert n == 3 and len(edges) == 3


def test_interval_canon_rejects_non_interval():
    c4 = Graph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(RecognitionError):
        interval_canon(c4)
    assert not is_interval_graph(c4)
    # C4 has no possible end at all
    assert possible_ends(c4) == []


def test_interval_model_verified():
    g, keys = graph_from_intervals(SMALL_SPANS)
    model = interval_model(g)
    spans = {v: (l, r) for v, l, r in model}
    for a, b in itertools.combinations(keys, 2):
        la, ra = spans[a]
        lb, rb = spans[b]
        assert (lb <= ra and la <= rb) == (b in g.adj[a])


def test_interval_canon_exhaustive_small():
    # over all connected interval graphs with <= 6 vertices: the canon is a
    # complete isomorphism invariant, isomorphic to its input, idempotent,
    # and invariant under relabelling
    rng = random.Random(5)
    seen = {}
    for n in range(1, 7):
        for mask in graphs_up_to_iso(n, np):
            g = Graph(range(n), mask_to_edges(mask, n))
            if not is_interval_graph(g):
                continue
            cn, cedges = interval_canon(g)
            assert cn == n
            zero_edges = {(u - 1, v - 1) for u, v in cedges}
            assert graph_iso(zero_edges, g.edges(), n, n), (mask, n)
            key = (n, cedges)
            assert key not in seen, "distinct representatives share a canon"
            seen[key] = mask
            # idempotence
            again = interval_canon(Graph(range(n), zero_edges))
            assert again == (cn, cedges)
            # relabelling invariance
            perm = list(range(n))
            rng.shuffle(perm)
            relabelled = _relabel(g, perm)
            assert interval_canon(relabelled) == (cn, cedges)


def test_interval_canon_disconnected_and_apex():
    # two disjoint triangles
    g = Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    n, edges = interval_canon(g)
    assert n == 6 and len(edges) == 6
    zero = {(u - 1, v - 1) for u, v in edges}
    assert graph_iso(zero, g.edges(), 6, 6)
    # apex over a path
    h = Graph(range(5), [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3)])
    n2, edges2 = interval_canon(h)
    zero2 = {(u - 1, v - 1) for u, v in edges2}
    assert graph_iso(zero2, h.edges(), 5, 5)


def test_interval_canon_random_relabelled_pairs():
    rng = random.Random(17)
    from limrec.structures import generate_random_interval_graph

    for seed in range(25):
        s = generate_random_interval_graph(12, seed=seed)
        g = Graph.from_structure(s)
        canon = interval_canon(g)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert interval_canon(_relabel(g, perm)) == canon
