"""Shared test utilities: exhaustive enumerations and brute-force oracles."""

import itertools
import random
from functools import lru_cache

from limrec.errors import FormulaError, RecognitionError
from limrec.evaluator import EvalContext, LabelledGraph, x_membership
from limrec.intervalcanon import (
    _possible_ends, _vkey, clique_preorder, interval_model, max_cliques, modular_partition,
    span_map,
)
from limrec.structures import CIRCUIT_VOCAB, GRAPH_VOCAB, Structure
from limrec.syntax import (
    NUMBER, And, Atom, Count, Dtc, EqVar, Exists, Forall, LeqNum, Lrec, LrecEq, Not, Or,
    Var, and_all, eq_tuple, is_zero,
)
from limrec.treelogic import DirectedTree, _circuit_shape, _postorder


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
    return tree.tables().iso_gadget()


def build_order_gadget(tree):
    return tree.tables().order_gadget()


def profile(tree, v):
    return tree.tables().profile[v]


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


def possible_ends(G, cliques=None):
    """Max cliques whose seeded order is asymmetric, in clique order."""
    cliques = max_cliques(G) if cliques is None else cliques
    return [cliques[pre.start] for pre in _possible_ends(G, cliques)]


def is_interval_graph(G) -> bool:
    try:
        interval_model(G)
        return True
    except RecognitionError:
        return False


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
# The library stops the clique preorder at the first symmetric pair, takes
# only the first possible end and builds the span filtration in one
# union-find sweep.  These are the plain loops it replaced: the full least
# fixed point, every possible end, and one induced subgraph per
# (clique, bound) pair.


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


def reference_possible_ends(G, cliques):
    """Preorders of the possible ends in clique order, decided by the full
    fixed point.  The library's preorder still checks the classes of an
    asymmetric order: its fixed point is complete whenever the order is
    asymmetric."""
    for start, M in enumerate(cliques):
        if not reference_asymmetric(cliques, start):
            continue
        try:
            pre = clique_preorder(G, M, cliques)
        except RecognitionError:
            continue
        yield pre


def reference_decomposition_components(G, _memo=None):
    """decomposition_components with one induced subgraph per (clique,
    bound) pair.  `_memo` is accepted and ignored, so this can stand in
    for the library function."""
    cliques = max_cliques(G)
    spans = span_map(G, cliques)
    candidates = []
    for M in cliques:
        by_set = {}
        for bound in range(1, G.n + 1):
            sub = G.subgraph({v for v in G.vertices if spans[v] <= bound})
            comp = next((c for c in sub.components() if c & M), None)
            if comp is not None:
                by_set[comp] = bound
        candidates.extend((M, bound, comp) for comp, bound in by_set.items())

    big_cache = {}

    def big_classes(vset):
        if vset not in big_cache:
            H = G.subgraph(vset)
            apices = H.apices()
            rest = frozenset(H.vertices) - apices
            if H.n <= 1:
                big_cache[vset] = []
            elif apices:
                big_cache[vset] = [rest] if len(rest) > 1 else []
            else:
                big_cache[vset] = list(modular_partition(H).modules)
        return big_cache[vset]

    sets_by_clique = {}
    for M, bound, comp in candidates:
        sets_by_clique.setdefault(M, {})[bound] = comp
    result = []
    for M, bound, comp in candidates:
        ok = True
        for upper_bound, upper in sets_by_clique[M].items():
            if upper_bound <= bound or upper == comp or not G.is_module(upper):
                continue
            inside_big = any(comp <= cls for cls in big_classes(upper))
            apex_outside = bool(G.subgraph(upper).apices() - comp)
            if not (inside_big or apex_outside):
                ok = False
                break
        if ok:
            result.append((M, bound, comp))
    return result


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
        return reference_free_variables(f.left) | reference_free_variables(f.right)
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
            walk(g.left)
            walk(g.right)
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
        return And(reference_substitute(f.left, mapping), reference_substitute(f.right, mapping))
    if isinstance(f, Or):
        return Or(reference_substitute(f.left, mapping), reference_substitute(f.right, mapping))
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
            return And(walk(g.left), walk(g.right))
        if isinstance(g, Or):
            return Or(walk(g.left), walk(g.right))
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
            psi = walk(g.sub)
            vprime = tuple(fresh.var(v.sort, "_w") for v in g.v)
            p = tuple(fresh.var(NUMBER, "_p") for _ in g.u)
            r = tuple(fresh.var(NUMBER, "_r") for _ in g.u)
            psi_prime = reference_substitute(psi, dict(zip(g.v, vprime)))
            phi_edge = And(psi, forall_all(vprime, Or(Not(psi_prime), eq_tuple(vprime, g.v))))
            p_zero = and_all(is_zero(pi, fresh) for pi in p)
            phi_label = Or(eq_tuple(g.v, g.s), And(Not(eq_tuple(g.v, g.s)), Not(p_zero)))
            out = Lrec(g.v, g.u, p, phi_edge, phi_label, g.t, r)
            for ri in reversed(r):
                out = Exists(ri, out)
            return out
        raise FormulaError(f"unknown formula node {type(g).__name__}")

    return walk(f)
