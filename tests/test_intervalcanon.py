import ast
import functools
import gc
import itertools
import random
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from limrec import intervalcanon
from limrec.errors import DomainError, LimrecError, RecognitionError
from limrec.intervalcanon import (
    Graph, _ckey, build_modular_tree, canon_L, clique_preorder, collapse_incomparables,
    interval_canon, interval_model, max_cliques, modular_partition, span_map,
)
from limrec.cli import main
from limrec.structures import GRAPH_VOCAB, Structure, generate_random_interval_graph
from limrec.evaluator import x_membership
from limrec.treelogic import DirectedTree, coloured_keys, tree_canon

from .helpers import (
    clique_witness, decomposition_components, graph_iso, graphs_up_to_iso, graphs_up_to_iso_all,
    has_hole, is_chordless_cycle, is_clique_set, is_interval_graph, is_module, mask_to_edges,
    nested_interval_graph, possible_ends, reference_asymmetric, reference_canon_L,
    reference_clique_order, reference_clique_pairs, reference_max_cliques,
    reference_model_disagreement, reference_possible_ends, reference_quotient, reference_render,
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


def test_is_clique_set_matches_the_pairwise_check():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(1, 7)
        g = Graph(range(n), [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6])
        for k in range(n + 1):
            for vs in itertools.combinations(g.vertices, k):
                pairwise = all(b in g.adj[a] for a, b in itertools.combinations(vs, 2))
                assert is_clique_set(g, vs) == pairwise, (sorted(g.edges()), vs)


def _brute_max_cliques(g: Graph):
    verts = list(g.vertices)
    cliques = []
    for bits in range(1, 1 << g.n):
        subset = [verts[i] for i in range(g.n) if bits >> i & 1]
        if is_clique_set(g, subset):
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


def test_adjacent_pairs_find_the_all_pairs_cliques_on_every_small_graph(tmp_path, capsys):
    # every graph on at most 7 vertices: interval graphs get the cliques of
    # every vertex pair, and `limrec check` rejects all the others
    path = tmp_path / "g.struct"
    interval_counts = []
    for n in range(1, 8):
        interval_counts.append(0)
        for mask in graphs_up_to_iso_all(n, np):
            edges = mask_to_edges(mask, n)
            g = Graph(range(n), edges)
            if is_interval_graph(g):
                interval_counts[-1] += 1
                assert max_cliques(g) == reference_max_cliques(g), (n, mask)
            else:
                path.write_text(Structure(GRAPH_VOCAB, n, {"E": edges}).serialize())
                assert main(["check", str(path)]) == 3, (n, mask)
                assert capsys.readouterr().out == ""
    # the numbers of interval graphs on 1..7 vertices, so no interval graph
    # was taken for another
    assert interval_counts == [1, 2, 4, 10, 27, 92, 369]


def test_max_cliques_rejects_exactly_the_graphs_with_a_hole():
    # every graph on at most 7 vertices: the clique search rejects exactly
    # the graphs with an induced cycle of length at least four, each with
    # such a cycle, and finds the subset enumerator's cliques on the others
    chordal = []
    for n in range(1, 8):
        chordal.append(0)
        for mask in graphs_up_to_iso_all(n, np):
            g = Graph(range(n), mask_to_edges(mask, n))
            if has_hole(g):
                with pytest.raises(RecognitionError, match="not chordal") as exc:
                    max_cliques(g)
                assert is_chordless_cycle(g, exc.value.certificate), (n, mask)
            else:
                chordal[-1] += 1
                assert max_cliques(g) == sorted(_brute_max_cliques(g), key=_ckey), (n, mask)
    # the numbers of chordal graphs on 1..7 vertices
    assert chordal == [1, 2, 4, 10, 27, 94, 393]
    for k in range(4, 33):
        cycle = Graph(range(k), [(i, (i + 1) % k) for i in range(k)])
        with pytest.raises(RecognitionError, match="not chordal") as exc:
            max_cliques(cycle)
        assert is_chordless_cycle(cycle, exc.value.certificate)
        assert sorted(exc.value.certificate) == list(range(k))


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
    assert span_map(path)[1] == 2
    assert span_map(path)[0] == 1
    g, _ = graph_from_intervals(SMALL_SPANS)
    # vertex a crosses three of the four max cliques
    assert len(max_cliques(g)) == 4
    assert span_map(g)["a"] == 3


# --- clique preorder and ends ----------------------------------------------


def test_preorder_two_clique_path():
    g = Graph(range(3), [(0, 1), (1, 2)])
    cliques = max_cliques(g)
    pre = clique_preorder(g, frozenset({0, 1}))
    assert pre.asymmetric
    i = cliques.index(frozenset({0, 1}))
    j = cliques.index(frozenset({1, 2}))
    assert (i, j) in pre.pairs and (j, i) not in pre.pairs


def test_preorder_star_incomparable_leaf_cliques():
    g = Graph(range(4), [(0, 1), (0, 2), (0, 3)])
    cliques = max_cliques(g)
    m = frozenset({0, 1})
    pre = clique_preorder(g, m)
    assert pre.asymmetric
    other = [cliques.index(c) for c in cliques if c != m]
    a, b = other
    assert (a, b) not in pre.pairs and (b, a) not in pre.pairs
    # the two leaf cliques collapse into a module of two leaves; every
    # quotient vertex is the frozenset of the vertices it stands for
    col = collapse_incomparables(g, m)
    assert col.graph.vertices == (frozenset({0}), frozenset({1}), frozenset({2, 3}))


def _brute_weak_order_classes(m, pairs):
    """The ordered incomparability classes when `pairs` is a strict weak
    order on range(m) (< and incomparability both transitive), else None."""
    def incomparable(a, b):
        return (a, b) not in pairs and (b, a) not in pairs

    triples = list(itertools.permutations(range(m), 3))
    if not all((a, c) in pairs for a, b, c in triples if (a, b) in pairs and (b, c) in pairs):
        return None
    if not all(incomparable(a, c) for a, b, c in triples
               if incomparable(a, b) and incomparable(b, c)):
        return None
    classes = []
    for i in range(m):
        if not any(i in group for group in classes):
            classes.append([j for j in range(m) if j == i or incomparable(i, j)])
    return sorted(classes, key=functools.cmp_to_key(
        lambda x, y: -1 if (x[0], y[0]) in pairs else 1))


def test_ranking_accepts_exactly_the_strict_weak_orders():
    # every asymmetric relation on up to 5 cliques with clique 0 before
    # all others, as the seeded propagation always has it
    counts = []
    for m in range(1, 6):
        cliques = [frozenset({i}) for i in range(m)]
        seeded = {(0, j) for j in range(1, m)}
        free = list(itertools.combinations(range(1, m), 2))
        weak = total = 0
        for choice in itertools.product((None, 0, 1), repeat=len(free)):
            pairs = seeded | {(i, j) if c == 0 else (j, i)
                              for (i, j), c in zip(free, choice) if c is not None}
            expected = _brute_weak_order_classes(m, pairs)
            total += 1
            pred = [sum(1 << i for i, k in pairs if k == j) for j in range(m)]
            if expected is None:
                with pytest.raises(RecognitionError, match="not a strict weak order"):
                    intervalcanon._ranked_classes(cliques, pred)
            else:
                weak += 1
                assert intervalcanon._ranked_classes(cliques, pred) == expected, pairs
        counts.append((weak, total))
    assert counts == [(1, 1), (1, 1), (3, 3), (13, 27), (75, 729)]
    # 2 is incomparable with 1 and with 3, yet 1 < 3: the certificate is the
    # first offending pair, (2, 3), since 2 ranks below 3 and is not before it
    cliques = [frozenset({i}) for i in range(4)]
    with pytest.raises(RecognitionError) as exc:
        intervalcanon._ranked_classes(cliques, [0, 0b1, 0b1, 0b11])
    assert exc.value.certificate == (cliques[2], cliques[3])


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
    cliques = g.cliques
    return {tuple(sorted(order[0])) for order in _consecutive_orders(cliques)}


def _sweep_cliques(g):
    """g.cliques; a graph that max_cliques rejects as not chordal gets the
    all-pairs reference cliques instead, so that its preorders still run."""
    try:
        return g.cliques
    except RecognitionError:
        g.cliques = reference_max_cliques(g)
        return g.cliques


def _connected_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = {pairs[i] for i in range(len(pairs)) if bits >> i & 1}
        g = Graph(range(n), edges)
        if len(g.components()) == 1:
            yield g


def test_possible_ends_match_permutation_oracle_exhaustive():
    for n in range(1, 6):
        for g in _connected_graphs(n):
            cliques = _sweep_cliques(g)
            oracle_orders = _consecutive_orders(cliques)
            if not oracle_orders:
                # not an interval graph (as far as these cliques go)
                continue
            got = {tuple(sorted(m)) for m in possible_ends(g)}
            assert got == _oracle_first_cliques(g), g.edges()


def test_strict_weak_order_iff_possible_end_exhaustive():
    for n in range(2, 6):
        for g in _connected_graphs(n):
            cliques = _sweep_cliques(g)
            if not _consecutive_orders(cliques):
                continue
            firsts = _oracle_first_cliques(g)
            for m in cliques:
                pre = clique_preorder(g, m)
                assert pre.asymmetric == (tuple(sorted(m)) in firsts)


def test_only_cliques_with_a_span_one_vertex_can_be_ends_exhaustive():
    # _possible_ends skips the other cliques; non-interval graphs included,
    # since a skipped clique that raised would change a rejection message
    for n in range(1, 7):
        for g in _connected_graphs(n):
            cliques = _sweep_cliques(g)
            spans = span_map(g)
            for m in cliques:
                if all(spans[v] > 1 for v in m):
                    assert not clique_preorder(g, m).asymmetric, (g.edges(), m)


def test_early_exit_preorder_matches_full_fixpoint_exhaustive():
    # non-interval graphs included: their starts are the ones cut short
    for n in range(1, 7):
        for g in _connected_graphs(n):
            cliques = _sweep_cliques(g)
            for start, m in enumerate(cliques):
                try:
                    pre = clique_preorder(g, m)
                except RecognitionError:
                    # raised only after the order proved asymmetric
                    assert reference_asymmetric(cliques, start), (g.edges(), m)
                    continue
                assert pre.asymmetric == reference_asymmetric(cliques, start), (g.edges(), m)
                # complete when asymmetric, a part of the fixed point when cut short
                full = reference_clique_pairs(cliques, start)
                if pre.asymmetric:
                    assert pre.pairs == full, (g.edges(), m)
                else:
                    assert pre.pairs <= full, (g.edges(), m)


# --- incomparability classes span modules ------------------------------------


def test_incomparability_classes_yield_modules_exhaustive():
    for n in range(2, 7):
        for g in _connected_graphs(n):
            cliques = _sweep_cliques(g)
            if not _consecutive_orders(cliques):
                continue
            spans = span_map(g)
            for m in possible_ends(g):
                pre = clique_preorder(g, m)
                for group in pre.classes:
                    union = set().union(*(cliques[i] for i in group))
                    outside = set().union(
                        *(cliques[i] for i in range(len(cliques)) if i not in group)
                    ) if len(group) < len(cliques) else set()
                    direct = union - outside
                    via_span = {v for v in union if spans[v] <= len(group)}
                    assert direct == via_span
                    assert is_module(g, direct) or not direct


def test_quotients_of_all_ends_isomorphic_exhaustive():
    # the collapsed quotient is independent of the chosen end
    for n in range(2, 7):
        for g in _connected_graphs(n):
            if g.apices() or not is_interval_graph(g):
                continue
            cliques = max_cliques(g)
            ends = possible_ends(g)
            quotients = []
            for m in ends:
                first = collapse_incomparables(g, m)
                z = first.graph.cliques[-1]
                second = collapse_incomparables(first.graph, z)
                quotients.append(_int_graph(second.graph))
            for q in quotients[1:]:
                assert graph_iso(
                    quotients[0].edges(), q.edges(), quotients[0].n, q.n
                )


def test_collapse_identity_when_linear():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    col = collapse_incomparables(g, frozenset({0, 1}))
    assert col.vertex_class == {v: frozenset({v}) for v in g.vertices}
    assert col.graph.vertices == tuple(frozenset({v}) for v in g.vertices)
    assert [sorted(min(x) for x in c) for c in col.graph.cliques] == [
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
        if len(h.components()) != 1:
            for comp in h.components():
                walk(comp, parent_connected=False)
            return
        for cell in wg_cells(h):
            if len(cell) > 1:
                walk(cell, parent_connected=True)

    whole = frozenset(g.vertices)
    result.update(g.components())
    sub = g
    if len(g.components()) == 1:
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
    assert part.modules == {}
    assert all(len(cell) == 1 for cell in part.cells)
    assert all(len(cls) == 1 for cls in part.vertex_class.values())


def test_partition_quotient_matches_the_quotient_of_every_edge():
    # L comes from the second collapse; it must equal G quotiented by the
    # final classes, and its clique order the images of the cells
    graphs = [Graph(range(n), mask_to_edges(mask, n))
              for n in range(1, 8) for mask in graphs_up_to_iso(n, np)]
    graphs += [g.subgraph(comp) for g in _differential_graphs() for comp in g.components()]
    checked = 0
    for g in graphs:
        if not is_interval_graph(g):
            continue
        part = g.partition
        old = reference_quotient(g, part.vertex_class)
        assert (part.quotient.vertices, part.quotient.adj) == (old.vertices, old.adj), g.edges()
        assert part.quotient.cliques == [
            frozenset(part.vertex_class[v] for v in cell[0]) for cell in part.cells
        ], g.edges()
        checked += not g.apices()
    assert checked > 100


def _cell_positions(part):
    """Each max clique -> the 0-based position of its cell."""
    return {c: pos for pos, cell in enumerate(part.cells) for c in cell}


def test_modular_partition_of_apex_complete_and_one_vertex_graphs():
    def single(*vs):
        return [frozenset({v}) for v in vs]

    # apices 0 and 1 over the rest {2, 3, 4}, in which 2-3 is an edge
    g = Graph(range(5), [(0, 1), (2, 3)] + [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    rest = frozenset({2, 3, 4})
    part = modular_partition(g)
    assert part.cells == [g.cliques] and len(g.cliques) == 2
    assert part.modules == {rest: 0}
    assert part.vertex_class == {0: frozenset({0}), 1: frozenset({1}), 2: rest, 3: rest, 4: rest}
    assert set(part.quotient.vertices) == set(single(0, 1)) | {rest}
    assert part.quotient.edges() == {
        (a, b) for a, b in itertools.combinations(part.quotient.vertices, 2)
    }
    assert part.quotient.cliques == [frozenset(part.quotient.vertices)]
    assert _cell_positions(part) == {c: 0 for c in g.cliques}
    # a complete graph and a one-vertex graph: one cell, no module, L is the graph
    for g in (Graph(range(3), itertools.combinations(range(3), 2)), Graph([7], [])):
        part = modular_partition(g)
        (clique,) = g.cliques
        assert part.cells == [[clique]] and part.modules == {}
        assert part.vertex_class == {v: frozenset({v}) for v in g.vertices}
        assert list(part.quotient.vertices) == single(*g.vertices)
        assert len(part.quotient.edges()) == g.n * (g.n - 1) // 2
        assert part.quotient.cliques == [frozenset(single(*g.vertices))]
        assert _cell_positions(part) == {clique: 0}
    for g in (Graph(range(3), [(0, 1)]), Graph([], [])):
        with pytest.raises(DomainError):
            modular_partition(g)
        with pytest.raises(DomainError):
            canon_L(g)


def test_canon_L_and_interval_model_match_the_former_apex_cases_exhaustive():
    apex_graphs = 0
    for n in range(1, 8):
        for mask in graphs_up_to_iso(n, np):
            g = Graph(range(n), mask_to_edges(mask, n))
            if not is_interval_graph(g):
                continue
            apex_graphs += bool(g.apices())
            assert canon_L(g) == reference_canon_L(g), sorted(g.edges())
            positions = {}
            for p, clique in enumerate(reference_clique_order(g), start=1):
                for v in clique:
                    positions.setdefault(v, []).append(p)
            model = [(v, min(ps), max(ps)) for v, ps in sorted(positions.items())]
            assert interval_model(g) == model, sorted(g.edges())
    assert apex_graphs == 1 + 1 + 2 + 4 + 10 + 27 + 92  # n = 1, ..., 7


def test_decomposition_matches_recursive_oracle_exhaustive():
    for n in range(1, 7):
        for g in _connected_graphs(n):
            if not is_interval_graph(g):
                continue
            got = {comp for _, _, comp in decomposition_components(g)}
            assert got == _oracle_decomposition_sets(g), sorted(g.edges())
            assert set(build_modular_tree(g).comp_set.values()) == got, sorted(g.edges())


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
        part.quotient.adj, part.quotient.cliques,
    )


def test_sweep_and_first_end_match_reference_loops(monkeypatch):
    for g in _differential_graphs():
        assert g.components() == sorted(g.components(), key=_ckey)
        p_sets = {comp for _, _, comp in decomposition_components(g)}
        assert set(build_modular_tree(g).comp_set.values()) == p_sets
        parts = {}
        for comp in g.components():
            h = g.subgraph(comp)
            if h.n >= 2 and not h.apices():
                parts[comp] = _partition_fields(modular_partition(h))
        canon = interval_canon(g)
        with monkeypatch.context() as patch:
            patch.setattr(intervalcanon, "_possible_ends", reference_possible_ends)
            for comp, fields in parts.items():
                assert _partition_fields(modular_partition(g.subgraph(comp))) == fields
            # a fresh graph, so no clique list or partition comes from g's caches
            assert interval_canon(Graph(g.vertices, g.edges())) == canon


def test_one_preorder_per_graph_and_start(monkeypatch):
    g = Graph.from_structure(generate_random_interval_graph(40, seed=3))
    calls = []
    original = intervalcanon.clique_preorder

    def counting(G, M):
        calls.append((frozenset(G.vertices), frozenset(G.edges()), M))
        return original(G, M)

    monkeypatch.setattr(intervalcanon, "clique_preorder", counting)
    interval_canon(g)
    assert len(calls) == len(set(calls)) == 2


def test_spans_are_computed_once_per_graph(monkeypatch):
    # the possible ends and the collapse of one graph read the same spans
    graphs = []
    original = intervalcanon.span_map

    def counting(G):
        graphs.append(G)
        return original(G)

    monkeypatch.setattr(intervalcanon, "span_map", counting)
    interval_canon(Graph.from_structure(generate_random_interval_graph(40, seed=3)))
    assert graphs and len({id(G) for G in graphs}) == len(graphs)


def test_subgraph_is_a_plain_induced_graph():
    g = Graph.from_structure(generate_random_interval_graph(20, seed=1))
    s = g.vertices[:12]
    h = g.subgraph(s)
    assert h is not g.subgraph(s) and h.vertices == s
    assert h.edges() == {(a, b) for a, b in g.edges() if a in s and b in s}
    assert h.cliques is h.cliques and h.cliques == max_cliques(h)
    path = _band(5, 1)
    assert path.partition is path.partition
    assert path.partition.cells == modular_partition(path).cells


def test_graph_rejects_an_edge_outside_its_vertices():
    for vertices, edges in (([0, 1], [(0, 2)]), ([0, 1], [(3, 1)]), ([], [(0, 1)])):
        with pytest.raises(DomainError, match="outside the vertices") as exc:
            Graph(vertices, edges)
        assert repr(edges[0]) in str(exc.value)
    assert Graph([0, 1], [(1, 1), (0, 1)]).edges() == {(0, 1)}


def test_graphs_are_freed_without_the_cyclic_collector():
    # a graph holds its walk, the walk holds the subgraphs below it and
    # never the graph itself, and canonisation leaves no reference cycle,
    # so the last reference frees everything
    for make in (lambda: Graph.from_structure(generate_random_interval_graph(40, seed=1)),
                 lambda: nested_interval_graph(4)):
        g = make()
        gc.collect()
        gc.disable()
        try:
            interval_canon(g)
            graphs = [e.graph for e in g.walk.entries if e.graph is not None]
            assert graphs
            refs = [weakref.ref(h) for h in (g, *graphs)]
            del g, graphs
            assert [r() for r in refs] == [None] * len(refs)
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_trees_and_their_gadgets_are_freed_without_the_cyclic_collector():
    # a tree holds its gadgets and a gadget holds the tree's tables, not
    # the tree, so reference counting frees them; a held gadget still works
    gc.collect()
    gc.disable()
    try:
        tree = DirectedTree([None] + [0] * 199)
        tree_canon(tree)
        order = tree.order_gadget()
        refs = [weakref.ref(x) for x in (tree, tree.canon_graph())]
        iso = weakref.ref(tree.iso_gadget())
        del tree
        assert [r() for r in refs] == [None, None]
        assert x_membership(order, (0, 1, 2, 1, 2, 0), order.resource) is False
        assert order.iso.isomorphic(1, 2) and iso() is order.iso
        del order
        assert iso() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_module_walk_takes_each_subgraph_once(monkeypatch):
    taken = []
    subgraph = Graph.subgraph

    def counting(self, keep):
        taken.append(frozenset(keep))
        return subgraph(self, keep)

    monkeypatch.setattr(Graph, "subgraph", counting)
    for g in (nested_interval_graph(6), graph_from_intervals(MODULAR_SPANS)[0],
              Graph.from_structure(generate_random_interval_graph(60, seed=5))):
        taken.clear()
        interval_canon(g)
        walk = g.walk
        assert len(taken) == len(set(taken))
        assert {e.vertices for e in walk.entries} == set(build_modular_tree(g).comp_set.values())
        # pre-order: every entry comes before the entries of its modules
        index = {id(e): i for i, e in enumerate(walk.entries)}
        for e in walk.entries:
            assert e.partition is (g if e.graph is None else e.graph).partition
            assert set(e.modules) == set(e.partition.modules)
            assert all(index[id(s)] > index[id(e)] for subs in e.modules.values() for s in subs)
        assert [e.graph is None for e in walk.components] == [
            len(e.vertices) == g.n for e in walk.components
        ]


def test_no_function_in_intervalcanon_calls_itself():
    # a function that calls itself costs a Python frame per level of
    # nesting, and no input may raise RecursionError for being deep
    module = ast.parse(Path(intervalcanon.__file__).read_text())
    recursive = []
    for fn in ast.walk(module):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                if callee == fn.name:
                    recursive.append(fn.name)
    assert recursive == []


def test_nested_family_canonises_within_fifty_frames():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    g = nested_interval_graph(30)
    perm = list(range(g.n))
    random.Random(30).shuffle(perm)
    twin = _relabel(g, perm)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        model = interval_model(nested_interval_graph(30))
        canon, twin_canon = interval_canon(g), interval_canon(twin)
    finally:
        sys.setrecursionlimit(limit)
    assert len(model) == g.n == canon[0]
    assert canon == twin_canon and len(canon[1]) == len(g.edges())


@pytest.mark.parametrize("graph, counts", [
    (lambda: nested_interval_graph(30), (89, 30, 30, 1047)),
    (lambda: Graph.from_structure(generate_random_interval_graph(40, seed=1)), (4, 2, 2, 124)),
    (lambda: Graph.from_structure(generate_random_interval_graph(320, seed=0)), (4, 2, 2, 874)),
])
def test_interval_canon_graph_and_apex_counts_are_pinned(monkeypatch, graph, counts):
    # exact work counts of one canonisation: Graph._from_adj builds every
    # graph, the input's subgraphs and the two quotients of each collapse
    # pair (L is the second quotient, not rebuilt), and Graph.__init__ none,
    # so no edge list is walked; Graph.apices runs once per component, in
    # modular_partition.  A graph finds its components once, so the walked
    # graph and a connected module share one search with their partitions;
    # and `sorted` counts every sort the module makes, the canonical edges
    # sorted once per component with modules, and L's singletons once per
    # component, for their labels and intervals
    g = graph()
    calls = Counter()
    components = Graph.__dict__["_components"]

    def searching(self, original=components.func):
        calls["components"] += 1
        return original(self)

    def sorting(*args, **kwargs):
        calls["sorted"] += 1
        return sorted(*args, **kwargs)

    monkeypatch.setattr(components, "func", searching)
    monkeypatch.setattr(intervalcanon, "sorted", sorting, raising=False)
    for name in ("__init__", "apices"):
        def counting(self, *args, name=name, original=getattr(Graph, name)):
            calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(Graph, name, counting)
    from_adj = Graph._from_adj.__func__

    def building(cls, adj):
        calls["_from_adj"] += 1
        return from_adj(cls, adj)

    monkeypatch.setattr(Graph, "_from_adj", classmethod(building))
    interval_canon(g)
    assert (
        calls["__init__"], calls["_from_adj"], calls["apices"], calls["components"],
        calls["sorted"],
    ) == (0, *counts)


def _disjoint_union(*graphs):
    """The disjoint union of graphs on 0..n-1, each numbered after the
    graphs before it."""
    offset, edges = 0, []
    for g in graphs:
        edges += [(offset + a, offset + b) for a, b in g.edges()]
        offset += g.n
    return Graph(range(offset), edges)


def test_interval_canon_derives_cliques_and_partition_once_per_vertex_set(monkeypatch):
    # the clique search runs once per call, on the input graph, and every
    # walked subgraph inherits its cliques; each vertex set is partitioned
    # once, and no quotient is searched or partitioned
    random_40 = Graph.from_structure(generate_random_interval_graph(40, seed=3))
    graphs = {"max_cliques": [], "modular_partition": []}
    for name, seen in graphs.items():
        def counting(G, original=getattr(intervalcanon, name), seen=seen):
            seen.append(G)
            return original(G)

        monkeypatch.setattr(intervalcanon, name, counting)
    quotients = []
    collapse = intervalcanon._collapse

    def collapsing(G, pre):
        result = collapse(G, pre)
        quotients.append(result.graph)
        return result

    monkeypatch.setattr(intervalcanon, "_collapse", collapsing)
    makes = [
        lambda: Graph(random_40.vertices, random_40.edges()),
        lambda: nested_interval_graph(8),
        lambda: _disjoint_union(random_40, nested_interval_graph(3), _band(4, 1), Graph([0], [])),
    ]
    for make in makes:
        for run in (interval_canon, interval_model):
            g = make()
            for seen in graphs.values():
                seen.clear()
            quotients.clear()
            run(g)
            assert graphs["max_cliques"] == [g], run
            assert quotients and graphs["modular_partition"]
            for name, seen in graphs.items():
                vsets = [frozenset(G.vertices) for G in seen]
                assert len(vsets) == len(set(vsets)), name
                assert not any(G is q for G in seen for q in quotients), name


def test_walked_subgraphs_inherit_the_cliques_a_search_would_find():
    # every graph of the walk, and every module's subgraph, carries the
    # cliques, in the same order, that a clique search of a fresh graph on
    # its vertices finds; on at most 7 vertices, also those of the
    # all-pairs reference
    small = []
    for n in range(1, 8):
        for mask in graphs_up_to_iso_all(n, np):
            g = Graph(range(n), mask_to_edges(mask, n))
            if is_interval_graph(g):
                small.append(g)
    assert sum(len(g.components()) > 1 for g in small) > 100
    larger = [nested_interval_graph(depth) for depth in range(11)]
    larger += [Graph.from_structure(generate_random_interval_graph(n, seed))
               for n in range(1, 61, 3) for seed in (0, 1, 2)]
    checked = Counter()
    for g in small + larger:
        for e in g.walk.entries:
            H = g if e.graph is None else e.graph
            assert H.cliques == max_cliques(Graph(H.vertices, H.edges())), sorted(g.edges())
            if g.n <= 7:
                assert H.cliques == reference_max_cliques(H), sorted(g.edges())
            checked["entries"] += H is not g
            for module, k in e.partition.modules.items():
                inherited = [c - e.outside[module] for c in e.partition.cells[k]]
                fresh = Graph(module, H.subgraph(module).edges())
                assert inherited == max_cliques(fresh), sorted(g.edges())
                checked["modules"] += 1
    assert checked["entries"] > 1000 and checked["modules"] > 400


# --- canon_L -----------------------------------------------------------------


def test_canon_L_single_clique():
    g = Graph(range(3), [(0, 1), (1, 2), (0, 2)])
    info = canon_L(g)
    assert info.m == 1
    assert info.size == 3
    assert info.edges == ((1, 2), (1, 3), (2, 3))


def test_render_matches_the_all_pairs_reference():
    # every multiset of at most five intervals with ends in 1..4, then
    # random lists of fifty intervals, each sorted as `_render` takes it
    ends = [(l, r) for l in range(1, 5) for r in range(l, 5)]
    lists = [
        list(ivs) for k in range(6) for ivs in itertools.combinations_with_replacement(ends, k)
    ]
    rng = random.Random(29)
    for _ in range(200):
        lefts = [rng.randint(1, 40) for _ in range(50)]
        lists.append([(l, l + rng.choice((0, 0, 1, 3, 10, 40))) for l in lefts])
    for ivs in lists:
        intervals, edges = reference_render(ivs)
        assert intervalcanon._render(intervals) == tuple(sorted(edges)), ivs


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
        tree.module_record[m].vertices: tree.module_record[m].colour
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
    # a palindromic order places each clique at its position and the mirror
    by_clique = {
        frozenset(c): tuple(sorted((pos + 1, info.m - pos)))
        for c, pos in _cell_positions(g.partition).items()
    }
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
        tree.module_record[m].vertices
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
    keys = coloured_keys(tree.as_directed_tree(), tree.colours)
    assert len(keys) == len(tree.kinds)
    mods = [i for i, k in enumerate(tree.kinds) if k == "module"]
    low = next(i for i in mods if tree.module_record[i].colour == (1,))
    high = next(i for i in mods if tree.module_record[i].colour == (3, 3))
    assert keys[low] != keys[high]


def test_palindromic_orientation_is_pinned():
    # a palindromic L is laid out in the orientation that numbers the
    # arrangement with the smaller coloured key first; the other
    # orientation is as isomorphic to the input and as canonical, so only a
    # pinned output tells them apart: a double star whose centres hold two
    # and three leaves, and the worked 20-vertex example
    double_star = Graph(range(7), [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6)])
    assert interval_canon(double_star) == (7, ((1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (2, 7)))
    g, _ = graph_from_intervals(MODULAR_SPANS)
    assert interval_canon(g) == (20, (
        (1, 2), (2, 3), (2, 10), (2, 11), (2, 12), (2, 13), (2, 14), (2, 15), (2, 16), (3, 4),
        (3, 6), (3, 7), (3, 8), (3, 9), (3, 10), (3, 11), (3, 12), (3, 13), (3, 14), (3, 15),
        (3, 16), (3, 17), (3, 18), (3, 19), (3, 20), (4, 5), (4, 17), (4, 18), (4, 19), (4, 20),
        (6, 8), (6, 9), (7, 8), (7, 9), (8, 9), (10, 11), (10, 12), (11, 12), (11, 13), (11, 15),
        (11, 16), (12, 13), (12, 15), (12, 16), (13, 14), (13, 15), (13, 16), (18, 20), (19, 20),
    ))


# --- full canonisation ---------------------------------------------------------


def test_interval_canon_trivial():
    empty = Graph([], [])
    assert interval_canon(empty) == (0, ())
    tree = build_modular_tree(empty)
    assert (tree.parents, tree.kinds, tree.comp_set) == ([None], ["root"], {})
    assert interval_canon(Graph([0], [])) == (1, ())
    n, edges = interval_canon(Graph(range(3), [(0, 1), (1, 2), (0, 2)]))
    assert n == 3 and len(edges) == 3


def test_interval_canon_rejects_non_interval():
    c4 = Graph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(RecognitionError, match="not chordal") as exc:
        interval_canon(c4)
    assert not is_interval_graph(c4)
    # C4 is rejected by the clique search, with the cycle itself
    assert is_chordless_cycle(c4, exc.value.certificate)


def test_interval_model_verified():
    g, keys = graph_from_intervals(SMALL_SPANS)
    model = interval_model(g)
    spans = {v: (l, r) for v, l, r in model}
    for a, b in itertools.combinations(keys, 2):
        la, ra = spans[a]
        lb, rb = spans[b]
        assert (lb <= ra and la <= rb) == (b in g.adj[a])


def _strictly_ascending(edges):
    """Each edge (u, v) has u < v, and the edges ascend strictly."""
    return all(u < v for u, v in edges) and all(a < b for a, b in zip(edges, edges[1:]))


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
            assert _strictly_ascending(cedges), (mask, n)
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
        assert _strictly_ascending(canon[1]), seed
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert interval_canon(_relabel(g, perm)) == canon


# --- certified copies ----------------------------------------------------------


def _outcome(run, g):
    """The word accepted, or the message of the RecognitionError run(g) raises."""
    try:
        run(g)
    except RecognitionError as exc:
        return str(exc)
    return "accepted"


def test_canon_accepts_exactly_what_the_model_accepts():
    # every graph on at most 7 vertices, disconnected ones included, and
    # seeded G(n, p) with n = 8..14: interval_canon, which checks only its
    # own copy, accepts exactly the graphs interval_model accepts and
    # rejects the others with the same message, never another exception
    graphs = [Graph(range(n), mask_to_edges(mask, n))
              for n in range(1, 8) for mask in graphs_up_to_iso_all(n, np)]
    rng = random.Random(31)
    for _ in range(3000):
        n, p = rng.randint(8, 14), rng.choice((0.15, 0.25, 0.35, 0.5, 0.7))
        graphs.append(Graph(range(n), [e for e in itertools.combinations(range(n), 2)
                                       if rng.random() < p]))
    outcomes = Counter()
    for g in graphs:
        model = _outcome(interval_model, g)
        assert _outcome(interval_canon, Graph(g.vertices, g.edges())) == model, sorted(g.edges())
        outcomes[model] += 1
    assert outcomes == {
        "accepted": 1029,
        "not chordal: not an interval graph": 3138,
        "no possible end: not an interval graph": 85,
    }


def _model_copy(G, spans):
    """The copy `interval_model` checks for a model: its vertices sorted
    by interval, and the edges their intervals render."""
    ordered = sorted(G.vertices, key=spans.__getitem__)
    return ordered, intervalcanon._render([spans[v] for v in ordered])


def test_copy_check_names_the_pair_the_all_pairs_check_names():
    # models of interval graphs, then the same models with one interval
    # moved, and random spans on G(n, p): the linear check accepts exactly
    # the models the all-pairs reference accepts, and otherwise raises
    # with the first pair the reference finds
    rng = random.Random(37)
    cases = []
    for seed in range(150):
        n = rng.randint(1, 16)
        g = Graph.from_structure(generate_random_interval_graph(n, seed=seed))
        spans = {v: (l, r) for v, l, r in interval_model(g)}
        moved = dict(spans)
        v = rng.choice(g.vertices)
        l = max(1, spans[v][0] + rng.choice((-2, -1, 1, 2)))
        moved[v] = (l, l + rng.randint(0, 3))
        cases += [(g, spans), (g, moved)]
        h = Graph(range(n), [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4])
        ends = [sorted((rng.randint(1, n), rng.randint(1, n))) for _ in range(n)]
        cases.append((h, dict(zip(h.vertices, map(tuple, ends)))))
    g, _ = graph_from_intervals(MODULAR_SPANS)
    cases.append((g, {v: (l, r + 1) for v, (l, r) in MODULAR_SPANS.items()}))
    found = Counter()
    for g, spans in cases:
        expected = reference_model_disagreement(g, spans)
        found[expected is None] += 1
        labels, edges = _model_copy(g, spans)
        if expected is None:
            assert intervalcanon._check_copy(g, labels, edges) is None
            continue
        with pytest.raises(RecognitionError, match="interval model disagrees") as exc:
            intervalcanon._check_copy(g, labels, edges)
        assert exc.value.certificate == expected, (sorted(g.edges()), spans)
    assert found[True] > 150 and found[False] > 200


def test_copy_check_reports_a_broken_numbering_as_a_bug():
    # labels that are not a permutation, and edges that are pi(E) but not
    # ascending or not pairs over the numbering, are errors of the caller,
    # not a rejection of the graph
    path = _band(5, 1)
    labels, edges = [0, 1, 2, 3, 4], ((1, 2), (2, 3), (3, 4), (4, 5))
    assert intervalcanon._check_copy(path, labels, edges) is None
    broken = [([0, 1, 2, 3], edges), ([0, 1, 2, 3, 3], edges), ([0, 1, 2, 3, 9], edges),
              (labels, edges[::-1]), (labels, edges + edges[-1:]),
              (labels, edges + ((0, 1),)), (labels, edges + ((3, 1),))]
    for labels, edges in broken:
        with pytest.raises(LimrecError) as exc:
            intervalcanon._check_copy(path, labels, edges)
        assert type(exc.value) is LimrecError, (labels, edges)


def _certified_graphs():
    yield graph_from_intervals(MODULAR_SPANS)[0]
    yield nested_interval_graph(5)
    yield _disjoint_union(_band(6, 2), _band(3, 1), Graph([0], []))
    for seed in range(4):
        yield Graph.from_structure(generate_random_interval_graph(40, seed=seed))


def test_interval_canon_certifies_its_copy_without_the_model(monkeypatch):
    # one check of the copy per call, on the input graph; the model is
    # never built
    def refuse(G):
        raise AssertionError("interval_canon built an interval model")

    checked = []
    check = intervalcanon._check_copy

    def checking(G, labels, edges):
        checked.append(G)
        return check(G, labels, edges)

    monkeypatch.setattr(intervalcanon, "interval_model", refuse)
    monkeypatch.setattr(intervalcanon, "_check_copy", checking)
    for g in _certified_graphs():
        checked.clear()
        n, edges = interval_canon(g)
        assert checked == [g] and n == g.n and len(edges) == len(g.edges())


def test_interval_canon_rejects_a_corrupted_assembly(monkeypatch):
    # two labels of different degree swapped in the first component block
    # that has such labels, or every module spliced at another position (the mirror of its own, or
    # the next one for a middle module) while L's singletons keep theirs:
    # the copy is no longer pi(E), and interval_canon raises, not returns
    component = intervalcanon._canon_component
    build = intervalcanon.build_modular_tree
    swapped, corrupted = [], Counter()

    def swapping(tree, keys, blocks, node, g):
        labels, edges = component(tree, keys, blocks, node)
        degree = [len(g.adj[v]) for v in labels]
        j = next((j for j, d in enumerate(degree) if d != degree[0]), None)
        if j is not None and g not in swapped:
            labels = [labels[j], *labels[1:j], labels[0], *labels[j + 1:]]
            swapped.append(g)
        return labels, edges

    def misplacing(G):
        tree = build(G)
        for info in tree.comp_lcanon.values():
            for record in info.modules if info.m > 1 else ():
                p, _ = info.spans[record.vertices]
                q = info.m + 1 - p if 2 * p != info.m + 1 else p % info.m + 1
                info.spans = {**info.spans, record.vertices: (q, q)}
                corrupted["moved", info.palindromic] += 1
        return tree

    graphs = list(_certified_graphs())
    for g in graphs:
        with monkeypatch.context() as patch:
            patch.setattr(intervalcanon, "_canon_component",
                          functools.partial(swapping, g=g))
            with pytest.raises(RecognitionError, match="interval model disagrees"):
                interval_canon(g)
    for g in graphs[:2]:
        with monkeypatch.context() as patch:
            patch.setattr(intervalcanon, "build_modular_tree", misplacing)
            with pytest.raises(RecognitionError, match="interval model disagrees"):
                interval_canon(g)
    assert swapped == graphs
    assert corrupted["moved", True] and corrupted["moved", False]


def test_holders_follow_the_cliques_a_collapse_keeps():
    # a quotient's cliques are the linear order of its collapse, and its
    # clique bitmasks index that order, not the order max_cliques gives
    g, _ = graph_from_intervals(MODULAR_SPANS)
    graphs = [g]
    for M in possible_ends(g):
        collapse = collapse_incomparables(g, M)
        images = [frozenset(collapse.vertex_class[v] for v in g.cliques[group[0]])
                  for group in clique_preorder(g, M).classes]
        assert collapse.graph.cliques == images
        graphs.append(collapse.graph)
    assert any(h.cliques != max_cliques(h) for h in graphs)
    for h in graphs:
        assert h.holders == {
            v: sum(1 << i for i, c in enumerate(h.cliques) if v in c) for v in h.vertices
        }
        assert h.members == [
            sum(1 << k for k, v in enumerate(h.vertices) if v in c) for c in h.cliques
        ]


def test_max_cliques_and_preorder_on_a_collapsed_star():
    # the quotient's vertices are the singletons {0}, {1} and the class {2, 3}
    star = Graph(range(4), [(0, 1), (0, 2), (0, 3)])
    quotient = collapse_incomparables(star, frozenset({0, 1})).graph
    a, b, leaves = frozenset({0}), frozenset({1}), frozenset({2, 3})
    cliques = max_cliques(quotient)
    assert cliques == [frozenset({a, b}), frozenset({a, leaves})]
    pre = clique_preorder(quotient, cliques[0])
    assert pre.asymmetric and pre.pairs == {(0, 1)}
    # without vertex {0} the class vertex is a component of its own
    rest = quotient.subgraph([b, leaves])
    assert rest.components() == [frozenset({b}), frozenset({leaves})]
    assert rest.components() == sorted(rest.components(), key=_ckey)
    # int-only cliques keep their order
    assert max_cliques(star) == [frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 3})]
