"""Shared test utilities: exhaustive enumerations and brute-force oracles."""

import itertools
import random
import tracemalloc
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from limrec.errors import FormulaError, LimrecError, ParseError, RecognitionError
from limrec.evaluator import (
    EvalContext, LabelledGraph, _child_resources, x_membership, x_membership_streaming,
)
from limrec.intervalcanon import (
    Graph, LCanon, ModuleRecord, _ckey, _possible_ends, _vkey, canon_L,
    clique_preorder, interval_model,
)
from limrec.structures import CIRCUIT_VOCAB, GRAPH_VOCAB, Structure
from limrec.syntax import (
    _KEYWORDS, NUMBER, And, Atom, Count, Dtc, EqVar, Exists, Forall, LeqNum, Lrec, LrecEq,
    Not, Or, Var, _Token, and_all, eq_tuple, is_zero,
)
from limrec.treelogic import (
    DirectedTree, _circuit_shape, _gadget_resource, _postorder, tree_isomorphic,
    tree_order_less,
)


# --- fixtures and oracles that the library itself does not call ---------------


class ExplicitGraph(LabelledGraph):
    """A fully materialized labelled graph."""

    def __init__(self, out: dict, labels: dict):
        super().__init__()
        self._out = {v: tuple(sorted(ns)) for v, ns in out.items()}
        indeg: dict = {}
        for v, ns in self._out.items():
            for b in ns:
                indeg[b] = indeg.get(b, 0) + 1
        self._indeg = indeg
        self._labels = labels

    def out_neighbours(self, vertex):
        return self._out.get(vertex, ())

    def in_degree(self, vertex):
        return self._indeg.get(vertex, 0)

    def label_contains(self, vertex, count):
        return count in self._labels.get(vertex, ())


def lrec_membership(structure, assignment, node, vertex, resource, ctx=None,
                    engine=x_membership):
    """Membership of (vertex, resource) in the relation of an lrec or
    lreceq node under the assignment, decided by `engine` on the class
    of vertex."""
    ctx = EvalContext(structure) if ctx is None else ctx
    graph = ctx.formula_graph(node, dict(assignment))
    return engine(graph, graph.class_of(tuple(vertex)), resource)


def build_iso_gadget(tree):
    return tree.iso_gadget()


def build_order_gadget(tree):
    return tree.order_gadget()


def profile(tree, v):
    return tree.profile[v]


def tree_to_structure(tree) -> Structure:
    edges = {(p, v) for v, p in enumerate(tree.parent) if p is not None}
    return Structure(GRAPH_VOCAB, tree.n, {"E": edges})


def subtree_string(tree, v) -> str:
    """Canonical parenthesis string: equal strings iff isomorphic subtrees.
    Built level by level from the deepest up (Aho–Hopcroft–Ullman), so
    deep trees need no recursion."""
    order = [v]
    for u in order:  # breadth-first: every child comes after its parent
        order.extend(tree.children[u])
    code = {}
    for u in reversed(order):
        code[u] = "(" + "".join(sorted(code.pop(c) for c in tree.children[u])) + ")"
    return code[v]


def tree_canon_oracle(tree) -> str:
    return subtree_string(tree, tree.root)


def canon_edges_to_tree(edges, n) -> DirectedTree:
    parents = [None] * n
    for a, b in edges:
        parents[b - 1] = a - 1
    return DirectedTree(parents)


def circuit_value_oracle(structure) -> bool:
    """Independent bottom-up evaluation."""
    out, _, kinds, root = _circuit_shape(structure)
    value = {}
    for v in _postorder(out, (root,)):
        kind = kinds[v]
        if kind == "P0":
            value[v] = False
        elif kind == "P1":
            value[v] = True
        elif kind == "Pand":
            value[v] = all(value[w] for w in out[v])
        elif kind == "Por":
            value[v] = any(value[w] for w in out[v])
        else:
            value[v] = not value[out[v][0]]
    return value[root]


def clique_witness(G, clique) -> tuple:
    """Lexicographically least pair (u, v) with N^c(u) & N^c(v) = clique."""
    closed = {v: G.adj[v] | {v} for v in G.vertices}
    for u in sorted(clique, key=_vkey):
        for v in sorted(clique, key=_vkey):
            if closed[u] & closed[v] == clique:
                return (u, v)
    raise RecognitionError(f"clique {set(clique)!r} has no witness pair")


def possible_ends(G):
    """Max cliques whose seeded order is asymmetric, in clique order."""
    return [G.cliques[pre.start] for pre in _possible_ends(G)]


def is_interval_graph(G) -> bool:
    try:
        interval_model(G)
        return True
    except RecognitionError:
        return False


def reference_model_disagreement(G, spans):
    """The all-pairs model check: the first vertex pair (a, b), a before b
    in G.vertices, whose intervals in `spans` (vertex -> (l, r)) meet
    exactly when a and b are not adjacent; None when the model agrees."""
    for i, a in enumerate(G.vertices):
        la, ra = spans[a]
        for b in G.vertices[i + 1:]:
            lb, rb = spans[b]
            if (lb <= ra and la <= rb) != (b in G.adj[a]):
                return a, b
    return None


def nested_interval_graph(depth) -> Graph:
    """The nested family: level 0 is one vertex, and level k + 1 is a path
    a0 - a1 - x - c1 - c0 with x joined to every vertex of level k.  Each
    level's inner graph is a module of the next, so the module tree is
    `depth` levels deep; it has 5 * depth + 1 vertices."""
    edges = []
    for level in range(depth):
        a0, a1, x, c1, c0 = range(5 * level + 1, 5 * level + 6)
        edges += [(a0, a1), (a1, x), (x, c1), (c1, c0)]
        edges += [(x, v) for v in range(5 * level + 1)]
    return Graph(range(5 * depth + 1), edges)


@lru_cache(maxsize=None)
def tree_shapes(n):
    """All rooted tree shapes with n vertices, as nested sorted tuples."""
    if n == 1:
        return ((),)
    shapes = set()

    def parts(remaining, min_key):
        if remaining == 0:
            yield ()
            return
        for s in range(1, remaining + 1):
            for t in tree_shapes(s):
                key = (s, t)
                if key < min_key:
                    continue
                for rest in parts(remaining - s, key):
                    yield (t,) + rest

    for kids in parts(n - 1, (0, ())):
        shapes.add(tuple(sorted(kids)))
    return tuple(sorted(shapes))


def shape_to_tree(shape) -> DirectedTree:
    parents = [None]

    def attach(kids, parent):
        for kid in kids:
            parents.append(parent)
            attach(kid, len(parents) - 1)

    attach(shape, 0)
    return DirectedTree(parents)


def all_trees(max_n):
    for n in range(1, max_n + 1):
        for shape in tree_shapes(n):
            yield shape_to_tree(shape)


def not_chain(n) -> Structure:
    """A circuit of n - 1 negation gates in a chain above one true gate."""
    return Structure(CIRCUIT_VOCAB, n, {
        "E": {(g, g + 1) for g in range(n - 1)},
        "Pnot": {(g,) for g in range(n - 1)},
        "P1": {(n - 1,)},
    })


def permute_tree(tree: DirectedTree, perm) -> DirectedTree:
    """Relabel vertices by perm (old index -> new index)."""
    parents = [None] * tree.n
    for v, p in enumerate(tree.parent):
        parents[perm[v]] = None if p is None else perm[p]
    return DirectedTree(parents)


def random_permutation(n, rng: random.Random):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def coloured_canonical_form(tree: DirectedTree, colours, v):
    """Colour-aware canonical nested tuple; equal forms iff the coloured
    subtrees are isomorphic."""
    kids = sorted(coloured_canonical_form(tree, colours, c) for c in tree.children[v])
    return (colours.get(v, ()), tuple(kids))


def reference_dense_profile(tree: DirectedTree, v):
    """The dense profile (size(v), number of children of size 1, ...,
    number of children of size size(v) - 1)."""
    counts = [0] * tree.size[v]
    for c in tree.children[v]:
        counts[tree.size[c]] += 1
    return (tree.size[v],) + tuple(counts[1:])


def graphs_up_to_iso(n, numpy_module):
    """Connected graph representatives on n vertices (canonical edge masks),
    built by extending the (n-1)-vertex representatives."""
    np = numpy_module
    pairs = list(itertools.combinations(range(n), 2))
    pair_index = {pq: i for i, pq in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    perm_maps = np.array(
        [
            [pair_index[tuple(sorted((perm[a], perm[b])))] for (a, b) in pairs]
            for perm in perms
        ],
        dtype=np.int64,
    )
    weights = np.left_shift(np.int64(1), np.arange(len(pairs), dtype=np.int64))

    def canonical(mask):
        bits = np.array([(mask >> i) & 1 for i in range(len(pairs))], dtype=np.int64)
        images = bits[perm_maps]
        return int(np.min(images @ weights))

    if n == 1:
        return [0]
    small_pairs = list(itertools.combinations(range(n - 1), 2))
    seen = set()
    out = []
    for small in graphs_up_to_iso_all(n - 1, np):
        lifted = 0
        for i, pq in enumerate(small_pairs):
            if small >> i & 1:
                lifted |= 1 << pair_index[pq]
        for nbhd in range(1, 1 << (n - 1)):
            mask = lifted
            for v in range(n - 1):
                if nbhd >> v & 1:
                    mask |= 1 << pair_index[(v, n - 1)]
            canon = canonical(mask)
            if canon not in seen:
                seen.add(canon)
                if _mask_connected(canon, n):
                    out.append(canon)
    return out


_ALL_CACHE = {}


def graphs_up_to_iso_all(n, numpy_module):
    """All graph representatives on n vertices (not only connected)."""
    np = numpy_module
    if n in _ALL_CACHE:
        return _ALL_CACHE[n]
    if n == 1:
        reps = [0]
    else:
        pairs = list(itertools.combinations(range(n), 2))
        pair_index = {pq: i for i, pq in enumerate(pairs)}
        perms = list(itertools.permutations(range(n)))
        perm_maps = np.array(
            [
                [pair_index[tuple(sorted((perm[a], perm[b])))] for (a, b) in pairs]
                for perm in perms
            ],
            dtype=np.int64,
        )
        weights = np.left_shift(np.int64(1), np.arange(len(pairs), dtype=np.int64))
        small_pairs = list(itertools.combinations(range(n - 1), 2))
        seen = set()
        reps = []
        for small in graphs_up_to_iso_all(n - 1, np):
            lifted = 0
            for i, pq in enumerate(small_pairs):
                if small >> i & 1:
                    lifted |= 1 << pair_index[pq]
            for nbhd in range(1 << (n - 1)):
                mask = lifted
                for v in range(n - 1):
                    if nbhd >> v & 1:
                        mask |= 1 << pair_index[(v, n - 1)]
                bits = np.array(
                    [(mask >> i) & 1 for i in range(len(pairs))], dtype=np.int64
                )
                canon = int(np.min(bits[perm_maps] @ weights))
                if canon not in seen:
                    seen.add(canon)
                    reps.append(canon)
    _ALL_CACHE[n] = reps
    return reps


def mask_to_edges(mask, n):
    pairs = list(itertools.combinations(range(n), 2))
    return {pairs[i] for i in range(len(pairs)) if mask >> i & 1}


def _mask_connected(mask, n):
    edges = mask_to_edges(mask, n)
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def graph_iso(edges1, edges2, n1, n2):
    """Brute-force undirected graph isomorphism for small n."""
    if n1 != n2 or len(edges1) != len(edges2):
        return False
    e2 = {frozenset(e) for e in edges2}
    deg1 = _degrees(edges1, n1)
    deg2 = _degrees(edges2, n2)
    if sorted(deg1) != sorted(deg2):
        return False
    for perm in itertools.permutations(range(n1)):
        if all(deg2[perm[v]] == deg1[v] for v in range(n1)):
            if {frozenset((perm[a], perm[b])) for a, b in edges1} == e2:
                return True
    return False


def _degrees(edges, n):
    deg = [0] * n
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return deg


# --- reference copies of the interval pipeline's full-work loops -------------
#
# The library finds max cliques by one maximum cardinality search, runs the
# clique preorder on bitmasks and stops it at the first symmetric pair, takes
# only the first possible end and builds each quotient from clique images.
# These are the plain loops it replaced: every vertex pair, every clique, the
# full least fixed point, every possible end and every edge.  The span
# filtration below checks the module walk.


def is_clique_set(G, vs):
    """Whether each vertex of vs is adjacent to all the others: no vertex
    is its own neighbour, so vs - adj[a] is {a} exactly then."""
    vs = frozenset(vs)
    return all(vs - G.adj[a] == {a} for a in vs)


def reference_max_cliques(G):
    """Closed-neighbourhood intersections of every vertex pair, adjacent or
    not, that are cliques; those below no other candidate, in clique order.
    Exact for interval graphs, where every max clique holds such a pair."""
    closed = {v: G.adj[v] | {v} for v in G.vertices}
    candidates = set()
    for u in G.vertices:
        for v in G.vertices:
            cand = closed[u] & closed[v]
            if cand and is_clique_set(G, cand):
                candidates.add(frozenset(cand))
    keep = [c for c in candidates if not any(c < other for other in candidates)]
    return sorted(keep, key=_ckey)


def reference_clique_pairs(cliques, start):
    """The full least fixed point of the order seeded at clique `start`."""
    m = len(cliques)
    pairs = {(start, j) for j in range(m) if j != start}
    work = list(pairs)
    while work:
        e, d = work.pop()
        ce, cd = cliques[e], cliques[d]
        for c in range(m):
            if c != d and (c, d) not in pairs and (ce & cliques[c]) - cd:
                pairs.add((c, d))
                work.append((c, d))
        for d2 in range(m):
            if d2 != e and (e, d2) not in pairs and (cd & cliques[d2]) - ce:
                pairs.add((e, d2))
                work.append((e, d2))
    return pairs


def reference_asymmetric(cliques, start):
    pairs = reference_clique_pairs(cliques, start)
    return not any((j, i) in pairs for i, j in pairs)


def reference_possible_ends(G):
    """Preorders of the possible ends in clique order, decided by the full
    fixed point.  The library's preorder still checks the classes of an
    asymmetric order: its fixed point is complete whenever the order is
    asymmetric."""
    for start, M in enumerate(G.cliques):
        if not reference_asymmetric(G.cliques, start):
            continue
        try:
            pre = clique_preorder(G, M)
        except RecognitionError:
            continue
        yield pre


def reference_quotient(G, vertex_class):
    """G with each vertex replaced by its class, read from every edge: two
    classes are adjacent when some of their members are."""
    return Graph(
        set(vertex_class.values()),
        ((vertex_class[a], vertex_class[b]) for a in G.vertices for b in G.adj[a]),
    )


def is_chordless_cycle(G, cycle):
    """Whether `cycle`, a vertex sequence, is an induced cycle of G of
    length at least four: distinct vertices, each adjacent to exactly its
    two neighbours in the sequence."""
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k:
        return False
    on = set(cycle)
    return all(
        G.adj[x] & on == {cycle[i - 1], cycle[(i + 1) % k]} for i, x in enumerate(cycle)
    )


def has_hole(G):
    """Whether G has an induced cycle of length at least four, by trying
    every vertex subset of at least four vertices: a subset induces a cycle
    exactly when it is connected and every vertex has two neighbours in
    it.  For small graphs only."""
    vertices = G.vertices
    for k in range(4, G.n + 1):
        for subset in itertools.combinations(vertices, k):
            on = set(subset)
            if any(len(G.adj[v] & on) != 2 for v in subset):
                continue
            reached, stack = {subset[0]}, [subset[0]]
            while stack:
                for w in G.adj[stack.pop()] & on:
                    if w not in reached:
                        reached.add(w)
                        stack.append(w)
            if reached == on:
                return True
    return False


def is_module(G, ws):
    """Whether every vertex of G outside ws sees all of ws or none of it."""
    ws = set(ws)
    for v in G.vertices:
        if v in ws:
            continue
        hits = sum(1 for w in ws if w in G.adj[v])
        if hits not in (0, len(ws)):
            return False
    return True


def decomposition_components(G):
    """The filtered (clique, bound) pairs whose span component is a
    connected component of a decomposition module.

    Returned entries are (clique, n, vertex set).  The distinct vertex
    sets are the paper's characterisation of the component vertices of
    the decomposition tree (the P-sets): they equal the `comp_set` values
    of `build_modular_tree(G)`, which finds them by the module walk.
    """
    cliques = G.cliques
    spans = G.spans
    # The span filtration in one sweep: vertices join in increasing span
    # order, and a union-find whose member lists merge small into large
    # holds the components of the vertices with span <= bound.  A max
    # clique's vertices below the bound are pairwise adjacent, so they lie
    # in one component, reached through the clique's least-span vertex.
    joining = sorted(G.vertices, key=spans.__getitem__)
    anchor = {M: min(M, key=spans.__getitem__) for M in cliques}
    root = {}
    members = {}
    by_set = {M: {} for M in cliques}  # clique -> {component: max bound}
    current = {}
    joined = 0
    for bound in range(1, G.n + 1):
        start = joined
        while joined < len(joining) and spans[joining[joined]] <= bound:
            v = joining[joined]
            joined += 1
            root[v] = v
            members[v] = [v]
            for w in G.adj[v]:
                a, b = root.get(w), root[v]
                if a is None or a == b:
                    continue
                if len(members[a]) < len(members[b]):
                    a, b = b, a
                for x in members[b]:
                    root[x] = a
                members[a].extend(members.pop(b))
        if joined > start:
            frozen = {r: frozenset(vs) for r, vs in members.items()}
            current = {M: frozen[root[v]] for M, v in anchor.items() if v in root}
        for M, comp in current.items():
            by_set[M][comp] = bound  # ascending bound: keeps the maximum
    splits = {}

    def module_split(vset):
        """(big classes, apices) of vset if it is a module of G, else None."""
        if vset not in splits:
            split = None
            if is_module(G, vset):
                H = G.subgraph(vset)
                split = (H.partition.modules, H.apices())
            splits[vset] = split
        return splits[vset]

    result = []
    for M in cliques:
        for comp, bound in by_set[M].items():
            for upper, upper_bound in by_set[M].items():
                if upper_bound <= bound or upper == comp:
                    continue
                split = module_split(upper)
                if split is None:
                    continue
                big, apices = split
                if not (any(comp <= cls for cls in big) or apices - comp):
                    break
            else:
                result.append((M, bound, comp))
    return result


def reference_render(order_of_intervals):
    """The canonical numbering from vertex intervals as once rendered: sort
    by (l, r), then test every pair for overlap.  The edges are a set."""
    intervals = sorted(order_of_intervals)
    edges = set()
    for i, (l1, r1) in enumerate(intervals):
        for j in range(i + 1, len(intervals)):
            l2, r2 = intervals[j]
            if l2 <= r1 and l1 <= r2:
                edges.add((i + 1, j + 1))
    return intervals, frozenset(edges)


def reference_canon_L(H):
    """canon_L with the cases it once answered before reading the
    partition: a one-vertex graph, a complete graph, and an apex graph,
    whose non-apex rest is one module at the only clique position.  Every
    vertex of L, each apex as a singleton and the rest as its class, spans
    that one position."""
    apices = H.apices()
    if not apices:
        return canon_L(H)
    spans = {frozenset({v}): (1, 1) for v in apices}
    rest = frozenset(H.vertices) - apices
    modules = []
    if rest:
        spans[rest] = (1, 1)
        modules = [ModuleRecord(rest, (1,), "single")]
    edges = tuple(sorted(reference_render(list(spans.values()))[1]))
    return LCanon(len(spans), edges, spans, 1, True, modules)


def reference_clique_order(H):
    """The consecutive clique order of a connected graph as built before
    apex graphs had a modular partition: a single clique as it is, an apex
    graph's rest components in turn with the apices added to each clique,
    and otherwise the cells in order, each module's cliques expanded."""
    cliques = H.cliques
    if H.n == 1 or len(cliques) == 1:
        return cliques
    apices = H.apices()
    if apices:
        rest = frozenset(H.vertices) - apices
        order = []
        for sub in H.subgraph(rest).components():
            order.extend(reference_clique_order(H.subgraph(sub)))
        expanded = [frozenset(c | apices) for c in order]
        if sorted(expanded, key=_ckey) != sorted(cliques, key=_ckey):
            raise RecognitionError("apex component cliques fail to stack")
        return expanded
    part = H.partition
    order = []
    for cell in part.cells:
        if len(cell) == 1:
            order.append(cell[0])
            continue
        module = next(cls for cls in part.modules if cls & cell[0])
        outside = frozenset(cell[0] - module)
        if any(frozenset(c - module) != outside for c in cell):
            raise RecognitionError("cell cliques disagree outside their module")
        sub_cliques = []
        for sub in H.subgraph(module).components():
            sub_cliques.extend(reference_clique_order(H.subgraph(sub)))
        expanded = [frozenset(sc | outside) for sc in sub_cliques]
        if sorted(expanded, key=_ckey) != sorted(cell, key=_ckey):
            raise RecognitionError("module cliques fail to expand the cell")
        order.extend(expanded)
    return order


# --- reference copies of the formula walkers ----------------------------------
#
# The library derives free variables, substitution, the name set and the dtc
# rewrite from one binder table.  These are the per-node-type walkers it
# replaced, kept to check that the table states every binding rule as before.


def reference_free_variables(f):
    if isinstance(f, Atom):
        return frozenset(f.args)
    if isinstance(f, (EqVar, LeqNum)):
        return frozenset((f.left, f.right))
    if isinstance(f, Not):
        return reference_free_variables(f.sub)
    if isinstance(f, (And, Or)):
        return frozenset().union(*(reference_free_variables(part) for part in f.parts))
    if isinstance(f, (Exists, Forall)):
        return reference_free_variables(f.sub) - {f.var}
    if isinstance(f, Count):
        return (reference_free_variables(f.sub) - set(f.uvars)) | set(f.pvars)
    if isinstance(f, Lrec):
        return (
            (reference_free_variables(f.phi_edge) - set(f.u) - set(f.v))
            | (reference_free_variables(f.phi_label) - set(f.u) - set(f.p))
            | set(f.w)
            | set(f.r)
        )
    if isinstance(f, LrecEq):
        return (
            (reference_free_variables(f.phi_eq) - set(f.u) - set(f.v))
            | (reference_free_variables(f.phi_edge) - set(f.u) - set(f.v))
            | (reference_free_variables(f.phi_label) - set(f.u) - set(f.p))
            | set(f.w)
            | set(f.r)
        )
    if isinstance(f, Dtc):
        return (reference_free_variables(f.sub) - set(f.u) - set(f.v)) | set(f.s) | set(f.t)
    raise FormulaError(f"unknown formula node {type(f).__name__}")


def reference_all_names(f):
    names = set()

    def walk(g):
        if isinstance(g, Atom):
            names.update(a.name for a in g.args)
        elif isinstance(g, (EqVar, LeqNum)):
            names.update((g.left.name, g.right.name))
        elif isinstance(g, Not):
            walk(g.sub)
        elif isinstance(g, (And, Or)):
            for part in g.parts:
                walk(part)
        elif isinstance(g, (Exists, Forall)):
            names.add(g.var.name)
            walk(g.sub)
        elif isinstance(g, Count):
            names.update(v.name for v in g.uvars + g.pvars)
            walk(g.sub)
        elif isinstance(g, Lrec):
            for tup in (g.u, g.v, g.p, g.w, g.r):
                names.update(v.name for v in tup)
            walk(g.phi_edge)
            walk(g.phi_label)
        elif isinstance(g, LrecEq):
            for tup in (g.u, g.v, g.p, g.w, g.r):
                names.update(v.name for v in tup)
            walk(g.phi_eq)
            walk(g.phi_edge)
            walk(g.phi_label)
        elif isinstance(g, Dtc):
            for tup in (g.u, g.v, g.s, g.t):
                names.update(v.name for v in tup)
            walk(g.sub)

    walk(f)
    return names


def reference_substitute(f, mapping):
    if not mapping:
        return f

    def sub_var(v):
        return mapping.get(v, v)

    def prune(mp, bound):
        return {k: v for k, v in mp.items() if k not in bound}

    if isinstance(f, Atom):
        return Atom(f.rel, tuple(sub_var(a) for a in f.args))
    if isinstance(f, EqVar):
        return EqVar(sub_var(f.left), sub_var(f.right))
    if isinstance(f, LeqNum):
        return LeqNum(sub_var(f.left), sub_var(f.right))
    if isinstance(f, Not):
        return Not(reference_substitute(f.sub, mapping))
    if isinstance(f, And):
        return And(tuple(reference_substitute(part, mapping) for part in f.parts))
    if isinstance(f, Or):
        return Or(tuple(reference_substitute(part, mapping) for part in f.parts))
    if isinstance(f, Exists):
        return Exists(f.var, reference_substitute(f.sub, prune(mapping, {f.var})))
    if isinstance(f, Forall):
        return Forall(f.var, reference_substitute(f.sub, prune(mapping, {f.var})))
    if isinstance(f, Count):
        inner = prune(mapping, set(f.uvars))
        return Count(
            f.uvars, reference_substitute(f.sub, inner), tuple(sub_var(p) for p in f.pvars)
        )
    if isinstance(f, Lrec):
        edge_mp = prune(mapping, set(f.u) | set(f.v))
        lab_mp = prune(mapping, set(f.u) | set(f.p))
        return Lrec(
            f.u, f.v, f.p,
            reference_substitute(f.phi_edge, edge_mp),
            reference_substitute(f.phi_label, lab_mp),
            tuple(sub_var(x) for x in f.w),
            tuple(sub_var(x) for x in f.r),
        )
    if isinstance(f, LrecEq):
        ev_mp = prune(mapping, set(f.u) | set(f.v))
        lab_mp = prune(mapping, set(f.u) | set(f.p))
        return LrecEq(
            f.u, f.v, f.p,
            reference_substitute(f.phi_eq, ev_mp),
            reference_substitute(f.phi_edge, ev_mp),
            reference_substitute(f.phi_label, lab_mp),
            tuple(sub_var(x) for x in f.w),
            tuple(sub_var(x) for x in f.r),
        )
    if isinstance(f, Dtc):
        inner = prune(mapping, set(f.u) | set(f.v))
        return Dtc(
            f.u, f.v, reference_substitute(f.sub, inner),
            tuple(sub_var(x) for x in f.s),
            tuple(sub_var(x) for x in f.t),
        )
    raise FormulaError(f"unknown formula node {type(f).__name__}")


class _ReferenceFresh:
    def __init__(self, f):
        self.used = reference_all_names(f)
        self.counter = 0

    def var(self, sort, hint="v"):
        while True:
            name = f"{hint}{self.counter}"
            self.counter += 1
            if name not in self.used:
                self.used.add(name)
                return Var(name, sort)


def reference_expand_dtc(f):
    fresh = _ReferenceFresh(f)

    def forall_all(vars_, body):
        for v in reversed(vars_):
            body = Forall(v, body)
        return body

    def walk(g):
        if isinstance(g, (Atom, EqVar, LeqNum)):
            return g
        if isinstance(g, Not):
            return Not(walk(g.sub))
        if isinstance(g, And):
            return And(tuple(walk(part) for part in g.parts))
        if isinstance(g, Or):
            return Or(tuple(walk(part) for part in g.parts))
        if isinstance(g, Exists):
            return Exists(g.var, walk(g.sub))
        if isinstance(g, Forall):
            return Forall(g.var, walk(g.sub))
        if isinstance(g, Count):
            return Count(g.uvars, walk(g.sub), g.pvars)
        if isinstance(g, Lrec):
            return Lrec(g.u, g.v, g.p, walk(g.phi_edge), walk(g.phi_label), g.w, g.r)
        if isinstance(g, LrecEq):
            return LrecEq(
                g.u, g.v, g.p, walk(g.phi_eq), walk(g.phi_edge), walk(g.phi_label), g.w, g.r
            )
        if isinstance(g, Dtc):
            psi, v = walk(g.sub), g.v
            # the label formula binds v, so a v meeting s is renamed
            if set(v) & set(g.s):
                v = tuple(fresh.var(x.sort, "_v") for x in g.v)
                psi = reference_substitute(psi, dict(zip(g.v, v)))
            vprime = tuple(fresh.var(x.sort, "_w") for x in v)
            p = tuple(fresh.var(NUMBER, "_p") for _ in g.u)
            r = tuple(fresh.var(NUMBER, "_r") for _ in g.u)
            psi_prime = reference_substitute(psi, dict(zip(v, vprime)))
            phi_edge = And((psi, forall_all(vprime, Or((Not(psi_prime), eq_tuple(vprime, v))))))
            p_zero = and_all(is_zero(pi, fresh) for pi in p)
            phi_label = Or((eq_tuple(v, g.s), And((Not(eq_tuple(v, g.s)), Not(p_zero)))))
            out = Lrec(v, g.u, p, phi_edge, phi_label, g.t, r)
            for ri in reversed(r):
                out = Exists(ri, out)
            return out
        raise FormulaError(f"unknown formula node {type(g).__name__}")

    return walk(f)


# --- reference copy of the tokenizer --------------------------------------------
#
# The library's tokenizer is one regular expression.  This is the
# character-by-character scanner it replaced, kept to check that both give
# the same tokens and the same errors.

_SYMBOLS = ("<->", "->", "<=", "=", "(", ")", "[", "]", ",", ";", ":", "#")


def reference_tokenize(text):
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        matched = False
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(_Token(sym, sym, line, col))
                i += len(sym)
                col += len(sym)
                matched = True
                break
        if matched:
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word if word in _KEYWORDS else "ident"
            toks.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(_Token("numlit", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("eof", "", line, col))
    return toks


# --- reference copies of the tree canon graph and the memo engine -------------


class ReferenceCanonGraph(LabelledGraph):
    """The canon graph as it was before its tables were built up front:
    a lazy per-vertex layout, a label generator shared by label_bounds and
    label_contains, sorted out-neighbours and a bisect in-degree."""

    label_bounds_exact = True

    def __init__(self, tree: DirectedTree):
        super().__init__()
        self.tree = tree
        self._layout = {}
        self._copies = {}  # child -> block starts of its class, set by layout(parent)

    def layout(self, v):
        """Per class of isomorphic children of v: (members, size, positions),
        positions being the range of the block starts of its copies."""
        cached = self._layout.get(v)
        if cached is None:
            tree = self.tree
            classes = []
            for c in tree.children[v]:
                for members in classes:
                    if tree.size[members[0]] == tree.size[c] and tree_isomorphic(
                        tree, members[0], c
                    ):
                        members.append(c)
                        break
                else:
                    classes.append([c])
            cached = []
            for members in classes:
                rep = members[0]
                below = (c for c in tree.children[v] if tree_order_less(tree, c, rep))
                base = 2 + sum(tree.size[c] for c in below)
                size = tree.size[rep]
                positions = range(base, base + len(members) * size, size)
                cached.append((members, size, positions))
                for c in members:
                    self._copies[c] = positions
            self._layout[v] = cached
        return cached

    def out_neighbours(self, vx):
        v, a, b = vx
        out = []
        top = self.tree.n
        for members, size, positions in self.layout(v):
            for p in positions:
                m, nn = a - p + 1, b - p + 1
                if 0 <= m <= top and 0 <= nn <= top:
                    out.extend((child, m, nn) for child in members)
        return tuple(sorted(out))

    def in_degree(self, vx):
        v, a, b = vx
        tree = self.tree
        parent = tree.parent[v]
        if parent is None:
            return 0
        self.layout(parent)
        return bisect_right(self._copies[v], tree.n + 1 - max(a, b))

    def label_counts(self, vx):
        """The counts in the label set of vx, per class of v's children."""
        v, a, b = vx
        for members, size, positions in self.layout(v):
            if a == 1 and b in positions:
                yield 0
            i = (a - positions.start) // size
            if 0 <= i == (b - positions.start) // size < len(members):
                yield len(members)

    def label_contains(self, vx, m):
        return m in self.label_counts(vx)

    def label_bounds(self, vx):
        counts = list(self.label_counts(vx))
        return (min(counts), max(counts)) if counts else None


def reference_tree_canon(tree: DirectedTree) -> tuple:
    """tree_canon as it was before it asked one parent per vertex: every
    pair a < b is asked, and the copy must have exactly n - 1 edges."""
    n = tree.n
    if n == 1:
        return ()
    graph = tree.canon_graph()
    edges = [
        (a, b)
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        if x_membership(graph, (tree.root, a, b), n)
    ]
    if len(edges) != n - 1:
        raise LimrecError(f"canonical copy has {len(edges)} edges, not the {n - 1} of a tree")
    return tuple(edges)


def _settled(count, left, bounds, exact):
    """The memo engine's settle rule: the verdict of a vertex with label
    bounds (lo, hi), count children accepted and left not yet visited,
    once the children left cannot change it; else None."""
    lo, hi = bounds
    if count > hi or count + left < lo:
        return False
    if exact and lo <= count and count + left <= hi:
        return True
    return None


def reference_x_membership(graph: LabelledGraph, vertex, resource: int) -> bool:
    """The memo engine with one stack frame for every vertex it reaches,
    as it was before vertices needing no children were decided at once.
    It settles a vertex by the same rule, checked when the frame starts
    and after each child."""
    memo = graph.memo
    key = (vertex, resource)
    if key in memo:
        return memo[key]
    exact = graph.label_bounds_exact
    # frame: [vertex, resource, children, child_resources, index, count, bounds]
    stack = [[vertex, resource, None, None, 0, 0, None]]
    while stack:
        frame = stack[-1]
        v, ell = frame[0], frame[1]
        fkey = (v, ell)
        if fkey in memo:
            stack.pop()
            continue
        if ell <= 0:
            memo[fkey] = False
            stack.pop()
            continue
        if frame[2] is None:
            bounds = graph.label_bounds(v)
            children = () if bounds is None else graph.out_neighbours(v)
            verdict = False if bounds is None else _settled(0, len(children), bounds, exact)
            if verdict is not None:
                memo[fkey] = verdict
                stack.pop()
                continue
            frame[2] = children
            frame[3] = _child_resources(graph, children, ell)
            frame[6] = bounds
        while frame[4] < len(frame[2]):
            ckey = (frame[2][frame[4]], frame[3][frame[4]])
            if ckey not in memo:
                stack.append([ckey[0], ckey[1], None, None, 0, 0, None])
                break
            frame[4] += 1
            if memo[ckey]:
                frame[5] += 1
            verdict = _settled(frame[5], len(frame[2]) - frame[4], frame[6], exact)
            if verdict is not None:
                break
        else:
            verdict = graph.label_contains(v, frame[5])
        if stack[-1] is frame:
            memo[fkey] = verdict
            stack.pop()
    return memo[key]


@dataclass
class Unravelling:
    """The tree of resource-annotated paths from a root query."""

    vertices: list
    resources: list
    parents: list
    children: list
    sizes: list

    def __len__(self):
        return len(self.vertices)

    def fail(self, i: int) -> bool:
        return self.resources[i] == 0


def reference_unravel(graph: LabelledGraph, vertex, resource: int) -> Unravelling:
    """Materialize the unravelling tree at (vertex, resource), one list
    entry per node of W, as the streaming engine did before it kept one
    table entry per (vertex, resource) pair.

    Node children follow the graph's neighbour order; each child's
    resource is floor((l-1)/in_degree(child)); nodes with resource 0 are
    failure leaves.
    """
    vertices = [vertex]
    resources = [resource]
    parents = [-1]
    children = [[]]
    queue = [0]
    while queue:
        i = queue.pop()
        ell = resources[i]
        if ell <= 0:
            continue
        kids = graph.out_neighbours(vertices[i])
        for b, sub in zip(kids, _child_resources(graph, kids, ell)):
            j = len(vertices)
            vertices.append(b)
            resources.append(sub)
            parents.append(i)
            children.append([])
            children[i].append(j)
            queue.append(j)
    sizes = [1] * len(vertices)
    for i in range(len(vertices) - 1, 0, -1):
        sizes[parents[i]] += sizes[i]
    return Unravelling(vertices, resources, parents, children, sizes)


def reference_x_membership_streaming(graph: LabelledGraph, vertex, resource: int) -> bool:
    """The streaming engine over the materialized unravelling: children
    in decreasing subtree size (ties by vertex, then resource), the
    counter budget and the t-counter checked at every visit."""
    tree = reference_unravel(graph, vertex, resource)
    w_count = len(tree)
    w_pow6 = w_count ** 6

    def ordered(i):
        return sorted(
            tree.children[i],
            key=lambda j: (-tree.sizes[j], tree.vertices[j], tree.resources[j]),
        )

    # path frames: [node, ordered children, next index (0-based), t, c, level_bits]
    root_frame = [0, ordered(0), 0, 0, 0, (w_count - 1).bit_length()]
    path = [root_frame]
    verdict = None
    while path:
        frame = path[-1]
        node, kids, idx = frame[0], frame[1], frame[2]
        budget = sum(2 * fr[5] for fr in path)
        if (1 << budget) > w_pow6:
            raise LimrecError(f"counter budget of {budget} bits exceeds 6*log2|W|, |W| = {w_count}")
        if idx < len(kids):
            child = kids[idx]
            j = idx + 1  # 1-based rank of the child being entered
            frame[5] = (j - 1).bit_length()
            if frame[3] != j - 1 or frame[3] > (1 << frame[5]) - 1:
                raise LimrecError(f"counter t = {frame[3]} does not fit in {frame[5]} bits")
            path.append([child, ordered(child), 0, 0, 0, (w_count - 1).bit_length()])
            continue
        succeeds = (not tree.fail(node)) and graph.label_contains(tree.vertices[node], frame[4])
        path.pop()
        if not path:
            verdict = succeeds
            break
        parent = path[-1]
        parent[2] += 1
        parent[3] += 1
        if succeeds:
            parent[4] += 1
        parent[5] = (w_count - 1).bit_length()
    return bool(verdict)


def streaming_like_reference(graph: LabelledGraph, vertex, resource: int) -> bool:
    """x_membership_streaming's verdict on (vertex, resource), once it is
    checked to give the verdict and make the label_contains calls of
    reference_x_membership_streaming: one call per node of W with
    resource > 0, in walk post-order, so the visiting order is the same."""
    runs = []
    for engine in (reference_x_membership_streaming, x_membership_streaming):
        recorder = RecordingGraph(graph)
        verdict = engine(recorder, vertex, resource)
        runs.append((verdict, [call for call in recorder.calls if call[0] == "label_contains"]))
    assert runs[0] == runs[1], (vertex, resource)
    return runs[1][0]


def streaming_iso_query_peak(n):
    """On the complete binary tree with n vertices, whose root's two
    subtrees are isomorphic: the streaming engine's verdict on the iso
    query (0, 1, 2, 1, 2, 0) at the gadget resource, the memo engine's
    verdict on it, and the tracemalloc peak in bytes of the streaming run."""
    tree = DirectedTree([None] + [(i - 1) // 2 for i in range(1, n)])
    query, resource = (0, 1, 2, 1, 2, 0), _gadget_resource(tree)
    tracemalloc.start()
    try:
        verdict = x_membership_streaming(tree.iso_gadget(), query, resource)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return verdict, x_membership(tree.iso_gadget(), query, resource), peak


class RecordingGraph(LabelledGraph):
    """Delegates every callback to `inner` and logs it; has its own memo
    and the exactness of inner's label bounds."""

    def __init__(self, inner: LabelledGraph):
        super().__init__()
        self.inner = inner
        self.label_bounds_exact = inner.label_bounds_exact
        self.calls = []

    def out_neighbours(self, vertex):
        self.calls.append(("out_neighbours", vertex))
        return self.inner.out_neighbours(vertex)

    def in_degree(self, vertex):
        self.calls.append(("in_degree", vertex))
        return self.inner.in_degree(vertex)

    def label_contains(self, vertex, count):
        self.calls.append(("label_contains", vertex, count))
        return self.inner.label_contains(vertex, count)

    def label_bounds(self, vertex):
        self.calls.append(("label_bounds", vertex))
        return self.inner.label_bounds(vertex)


class UnprunedGraph(LabelledGraph):
    """Delegates the edges and labels to `inner` but keeps the default
    label bounds, so the memo engine walks every child; has its own memo."""

    def __init__(self, inner: LabelledGraph):
        super().__init__()
        self.inner = inner

    def out_neighbours(self, vertex):
        return self.inner.out_neighbours(vertex)

    def in_degree(self, vertex):
        return self.inner.in_degree(vertex)

    def label_contains(self, vertex, count):
        return self.inner.label_contains(vertex, count)
