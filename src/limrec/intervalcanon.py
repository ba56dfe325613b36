"""Interval graph canonisation through modular decomposition.

Pipeline: max cliques from closed-neighbourhood pairs, the seeded
reachability order on cliques, possible ends, the double collapse onto
the module-free quotient L with its two clique orders, the coloured
modular decomposition tree, and finally a canonical copy assembled
bottom-up over that tree.

Recognition is exact: the pipeline orders each component's cliques and
the resulting interval model is verified against the input graph, so
non-interval inputs are always rejected with a certificate (either a
clique with no possible end or the failing model comparison).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .errors import DomainError, RecognitionError
from .structures import Structure
from .treelogic import DirectedTree, coloured_compare


def _vkey(v):
    """Sort key usable for both base vertices (ints) and class vertices
    (frozensets of ints)."""
    if isinstance(v, frozenset):
        return (1, tuple(sorted(v)))
    return (0, v)


def _ckey(clique):
    return tuple(sorted(map(_vkey, clique)))


class Graph:
    """Simple undirected graph over hashable vertices."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(sorted(set(vertices), key=_vkey))
        self.adj = {v: set() for v in self.vertices}
        for a, b in edges:
            if a == b:
                continue
            self.adj[a].add(b)
            self.adj[b].add(a)
        self.adj = {v: frozenset(ns) for v, ns in self.adj.items()}

    @classmethod
    def from_structure(cls, structure: Structure) -> "Graph":
        return cls(range(structure.universe_size), structure.binary_rel("E"))

    @property
    def n(self):
        return len(self.vertices)

    def edges(self):
        return {
            (a, b)
            for a in self.vertices
            for b in self.adj[a]
            if _vkey(a) < _vkey(b)
        }

    def subgraph(self, keep) -> "Graph":
        keep = set(keep)
        return Graph(keep, ((a, b) for a in keep for b in self.adj[a] if b in keep))

    def components(self):
        seen = set()
        out = []
        for start in self.vertices:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                for w in self.adj[v]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            out.append(frozenset(comp))
        return out

    def is_connected(self):
        return len(self.components()) <= 1

    def apices(self):
        """Vertices adjacent to every other vertex."""
        return frozenset(v for v in self.vertices if len(self.adj[v]) == self.n - 1)

    def is_clique_set(self, vs):
        vs = list(vs)
        return all(b in self.adj[a] for i, a in enumerate(vs) for b in vs[i + 1 :])

    def is_module(self, ws):
        ws = set(ws)
        for v in self.vertices:
            if v in ws:
                continue
            hits = sum(1 for w in ws if w in self.adj[v])
            if hits not in (0, len(ws)):
                return False
        return True


def max_cliques(G: Graph):
    """All max cliques, via closed-neighbourhood intersections of vertex
    pairs.  Exact for interval graphs; the final model verification
    rejects anything this might miss on other inputs."""
    closed = {v: G.adj[v] | {v} for v in G.vertices}
    candidates = set()
    for u in G.vertices:
        for v in G.vertices:
            cand = closed[u] & closed[v]
            if cand and G.is_clique_set(cand):
                candidates.add(frozenset(cand))
    keep = [
        c
        for c in candidates
        if not any(c < other for other in candidates)
    ]
    return sorted(keep, key=_ckey)


def span_map(G: Graph, cliques=None):
    cliques = max_cliques(G) if cliques is None else cliques
    spans = {v: 0 for v in G.vertices}
    for c in cliques:
        for v in c:
            spans[v] += 1
    return spans


@dataclass
class CliquePreorder:
    """The seeded clique relation for one start clique: `pairs` holds
    index pairs (i, j) meaning clique i comes strictly before j.

    `pairs` is the complete fixed point only when `asymmetric` is true:
    the propagation stops at the first pair whose reverse it already
    holds, since from then on the order can no longer be asymmetric."""

    cliques: list
    start: int
    pairs: set
    asymmetric: bool
    classes: list = field(default_factory=list)  # incomparability classes, ordered


def clique_preorder(G: Graph, M, cliques=None) -> CliquePreorder:
    """Least fixed point of the seeded order: start clique before all
    others, then propagate through overlap witnesses (reachability in
    the pair graph)."""
    cliques = max_cliques(G) if cliques is None else cliques
    index = {c: i for i, c in enumerate(cliques)}
    if M not in index:
        raise DomainError("start clique is not a max clique")
    m = len(cliques)
    start = index[M]
    pairs = set()
    work = []
    for j in range(m):
        if j != start:
            pairs.add((start, j))
            work.append((start, j))
    symmetric = False
    while work and not symmetric:
        e, d = work.pop()
        ce, cd = cliques[e], cliques[d]
        # (E before D) and (E & C) - D nonempty  =>  C before D
        for c in range(m):
            if c != d and (c, d) not in pairs and (ce & cliques[c]) - cd:
                pairs.add((c, d))
                work.append((c, d))
                symmetric |= (d, c) in pairs
        # (C before E) and (E & D') - C nonempty  =>  C before D'
        # here the popped pair plays the role (C, E) = (e, d)
        for d2 in range(m):
            if d2 != e and (e, d2) not in pairs and (cd & cliques[d2]) - ce:
                pairs.add((e, d2))
                work.append((e, d2))
                symmetric |= (d2, e) in pairs
    asymmetric = not any((j, i) in pairs for (i, j) in pairs)
    classes = []
    if asymmetric:
        assigned = [None] * m
        for i in range(m):
            if assigned[i] is not None:
                continue
            group = [i]
            assigned[i] = i
            for j in range(i + 1, m):
                if assigned[j] is None and (i, j) not in pairs and (j, i) not in pairs:
                    group.append(j)
                    assigned[j] = i
            classes.append(group)
        # incomparability must be transitive for a strict weak order
        for group in classes:
            for a in group:
                for b in group:
                    if (a, b) in pairs:
                        raise RecognitionError(
                            "clique order is not a strict weak order",
                            certificate=(cliques[a], cliques[b]),
                        )
        classes.sort(
            key=lambda group: sum(1 for other in range(m) if (other, group[0]) in pairs)
        )
        for ga, gb in zip(classes, classes[1:]):
            if (ga[0], gb[0]) not in pairs:
                raise RecognitionError(
                    "incomparability classes are not linearly ordered",
                    certificate=(cliques[ga[0]], cliques[gb[0]]),
                )
    return CliquePreorder(cliques, start, pairs, asymmetric, classes)


def _possible_ends(G: Graph, cliques):
    """The asymmetric preorders seeded at each clique in clique order, each
    found only when asked for."""
    for M in cliques:
        try:
            pre = clique_preorder(G, M, cliques)
        except RecognitionError:
            continue
        if pre.asymmetric:
            yield pre


def _merge_class(members):
    """Flatten a set of vertices (ints or frozensets) into one class vertex."""
    out = set()
    for v in members:
        if isinstance(v, frozenset):
            out |= v
        else:
            out.add(v)
    return frozenset(out)


@dataclass
class Collapse:
    graph: Graph
    clique_order: list          # quotient cliques, linearly ordered
    vertex_class: dict          # original vertex -> quotient vertex
    clique_position: dict       # original clique -> 0-based position


def collapse_incomparables(G: Graph, M, cliques=None) -> Collapse:
    """Quotient G by the modules spanned by maximal incomparability
    classes of the order seeded at M (a possible end)."""
    pre = clique_preorder(G, M, cliques)
    if not pre.asymmetric:
        raise RecognitionError(
            "start clique is not a possible end", certificate=M
        )
    return _collapse(G, pre)


def _collapse(G: Graph, pre: CliquePreorder) -> Collapse:
    """collapse_incomparables for an asymmetric preorder already computed."""
    cliques = pre.cliques
    spans = span_map(G, cliques)
    vertex_class = {v: v for v in G.vertices}
    for group in pre.classes:
        if len(group) < 2:
            continue
        union = set()
        for i in group:
            union |= cliques[i]
        s_set = {v for v in union if spans[v] <= len(group)}
        merged = _merge_class(s_set)
        for v in s_set:
            vertex_class[v] = merged
    # normalize untouched vertices into class form only if quotients nest
    quotient = Graph(
        set(vertex_class.values()),
        (
            (vertex_class[a], vertex_class[b])
            for a in G.vertices
            for b in G.adj[a]
        ),
    )
    clique_order = []
    clique_position = {}
    for pos, group in enumerate(pre.classes):
        image = frozenset(vertex_class[v] for v in cliques[group[0]])
        for i in group:
            img = frozenset(vertex_class[v] for v in cliques[i])
            if img != image:
                raise RecognitionError(
                    "incomparability class does not collapse to one clique",
                    certificate=(cliques[group[0]], cliques[i]),
                )
            clique_position[cliques[i]] = pos
        clique_order.append(image)
    return Collapse(quotient, clique_order, vertex_class, clique_position)


@dataclass
class ModularPartition:
    cells: list                 # partition of the max cliques
    modules: list               # the multi-vertex modules, one per big cell
    vertex_class: dict          # vertex -> frozenset class (singletons too)
    quotient: Graph             # the graph L
    clique_order: list          # L's max cliques in one linear order
    clique_position: dict       # original clique -> 0-based position


def modular_partition(G: Graph, cliques=None) -> ModularPartition:
    """The maximal clique-set partition via the double collapse: collapse
    at any possible end, then at the top clique of the quotient."""
    if not G.is_connected():
        raise DomainError("modular partition needs a connected graph")
    if G.apices():
        raise DomainError("modular partition needs an apex-free graph")
    if G.n < 2:
        raise DomainError("modular partition needs at least two vertices")
    cliques = max_cliques(G) if cliques is None else cliques
    end = next(_possible_ends(G, cliques), None)
    if end is None:
        raise RecognitionError(
            "no possible end: not an interval graph", certificate=G.vertices
        )
    first = _collapse(G, end)
    z_top = first.clique_order[-1]
    second = collapse_incomparables(first.graph, z_top, first.clique_order)
    vertex_class = {}
    for v in G.vertices:
        mid = first.vertex_class[v]
        final = second.vertex_class[mid]
        vertex_class[v] = _merge_class([final])
    cells_by_pos = {}
    clique_position = {}
    for c in cliques:
        pos = second.clique_position[
            frozenset(first.vertex_class[v] for v in c)
        ]
        cells_by_pos.setdefault(pos, []).append(c)
        clique_position[c] = pos
    cells = [cells_by_pos[p] for p in sorted(cells_by_pos)]
    if len(cells) != len(second.clique_order):
        raise RecognitionError("cell map is not onto the quotient cliques")
    modules = []
    for cell in cells:
        classes = {vertex_class[v] for c in cell for v in c}
        big = [cls for cls in classes if len(cls) > 1]
        if len(big) > 1:
            raise RecognitionError("cell yields more than one module")
        if big:
            modules.append(big[0])
    if len(cells) < 3:
        raise RecognitionError(
            "connected apex-free interval graphs have at least three cells",
            certificate=G.vertices,
        )
    quotient = Graph(
        set(vertex_class.values()),
        ((vertex_class[a], vertex_class[b]) for a in G.vertices for b in G.adj[a]),
    )
    order = [
        frozenset(vertex_class[v] for v in cell[0]) for cell in cells
    ]
    return ModularPartition(cells, modules, vertex_class, quotient, order, clique_position)


class _Induced:
    """The subgraph induced by one vertex set, with the max cliques and
    the modular partition derived from it, each computed on first use."""

    def __init__(self, graph: Graph, cliques=None):
        self.graph = graph
        if cliques is not None:
            self.cliques = cliques

    @functools.cached_property
    def cliques(self):
        return max_cliques(self.graph)

    @functools.cached_property
    def partition(self) -> ModularPartition:
        return modular_partition(self.graph, self.cliques)


def _induced(G: Graph, vset, memo: dict, cliques=None) -> _Induced:
    """The per-call memo entry of `vset`, a subset of G's vertices.  Every
    graph of one call is an induced subgraph of the same input, so a
    vertex set names one subgraph, whichever graph it was taken from."""
    vset = frozenset(vset)
    entry = memo.get(vset)
    if entry is None:
        graph = G if len(vset) == G.n else G.subgraph(vset)
        entry = memo[vset] = _Induced(graph, cliques)
    return entry


# ---------------------------------------------------------------------------
# Canonical copies of the quotient L


@dataclass
class ModuleRecord:
    vertices: frozenset         # the module, as original component vertices
    colour: tuple               # position multiset, ascending
    group: str                  # "single" | "low" | "high" | "mid"


@dataclass
class LCanon:
    size: int                   # |V(L)|
    edges: frozenset            # canonical copy of L on [1, size]
    intervals: list             # canon vertex i -> (l, r), index i-1
    m: int                      # number of max cliques of L
    palindromic: bool           # the two orders render identically
    modules: list               # ModuleRecord per multi-vertex module
    clique_colour: dict         # original clique -> position multiset


def _render(order_of_intervals):
    """Canonical numbering from vertex intervals: sort by (l, r)."""
    intervals = sorted(order_of_intervals)
    edges = set()
    for i, (l1, r1) in enumerate(intervals):
        for j in range(i + 1, len(intervals)):
            l2, r2 = intervals[j]
            if l2 <= r1 and l1 <= r2:
                edges.add((i + 1, j + 1))
    return intervals, frozenset(edges)


def _interval_of(vertex, order):
    positions = [p + 1 for p, clique in enumerate(order) if vertex in clique]
    return (min(positions), max(positions))


def canon_L(H: Graph, cliques=None, _memo=None) -> LCanon:
    """Canonical ordered copy of the module-collapsed quotient of a
    connected graph, with per-module and per-clique position data.

    Apex components collapse to a clique (the non-apex remainder is the
    single module); otherwise the double collapse applies.  The kept
    clique order is the one with the lexicographically smaller rendering;
    when both render identically the orders are reported palindromic.
    """
    if not H.is_connected():
        raise DomainError("canon_L needs a connected graph")
    entry = _induced(H, H.vertices, {} if _memo is None else _memo, cliques)
    cliques = entry.cliques
    apices = H.apices()
    if H.n == 1:
        only = cliques[0]
        return LCanon(1, frozenset(), [(1, 1)], 1, True, [], {only: (1,)})
    if apices:
        rest = frozenset(v for v in H.vertices if v not in apices)
        if not rest:
            # complete graph: L is the graph itself
            intervals = [(1, 1)] * H.n
            _, edges = _render(intervals)
            return LCanon(H.n, edges, intervals, 1, True, [], {cliques[0]: (1,)})
        size = len(apices) + 1
        intervals = [(1, 1)] * size
        _, edges = _render(intervals)
        modules = [ModuleRecord(rest, (1,), "single")]
        colour = {c: (1,) for c in cliques}
        return LCanon(size, edges, intervals, 1, True, modules, colour)
    part = entry.partition
    L = part.quotient
    order_fwd = part.clique_order
    order_bwd = list(reversed(order_fwd))
    m = len(order_fwd)
    fwd = sorted(_interval_of(v, order_fwd) for v in L.vertices)
    bwd = sorted(_interval_of(v, order_bwd) for v in L.vertices)
    if fwd == bwd:
        palindromic = True
        kept = order_fwd
        intervals, edges = _render(fwd)
    else:
        palindromic = False
        kept = order_fwd if fwd < bwd else order_bwd
        intervals, edges = _render(min(fwd, bwd))
    kept_position = {clique: p + 1 for p, clique in enumerate(kept)}

    def positions_of(pos_in_fwd):
        pos_kept = pos_in_fwd if kept is order_fwd else m + 1 - pos_in_fwd
        if palindromic and m > 1:
            return tuple(sorted((pos_kept, m + 1 - pos_kept)))
        return (pos_kept,)

    modules = []
    for cls in part.modules:
        if cls not in L.adj:
            raise RecognitionError("module is not a vertex of the quotient", certificate=cls)
        holders = [p + 1 for p, clique in enumerate(kept) if cls in clique]
        if len(holders) != 1:
            raise RecognitionError("module vertex must have span one", certificate=cls)
        pos = holders[0]
        if palindromic and m > 1:
            mirror = m + 1 - pos
            colour = tuple(sorted((pos, mirror)))
            group = "mid" if pos == mirror else ("low" if pos < mirror else "high")
        else:
            colour = (pos,)
            group = "single"
        modules.append(ModuleRecord(cls, colour, group))
    clique_colour = {}
    for c, pos0 in part.clique_position.items():
        clique_colour[c] = positions_of(pos0 + 1)
    return LCanon(L.n, edges, intervals, m, palindromic, modules, clique_colour)


# ---------------------------------------------------------------------------
# Decomposition components (the P sets)


def _wg_big_classes(entry: _Induced):
    """Multi-vertex classes of the module partition of a connected graph."""
    H = entry.graph
    if H.n <= 1:
        return []
    apices = H.apices()
    if apices:
        rest = frozenset(v for v in H.vertices if v not in apices)
        return [rest] if len(rest) > 1 else []
    return list(entry.partition.modules)


def decomposition_components(G: Graph, _memo=None):
    """The filtered (clique, bound) pairs whose span component is a
    connected component of a decomposition module.

    Returned entries are (clique, n, vertex set); every distinct vertex
    set is one component vertex of the decomposition tree.
    """
    memo = {} if _memo is None else _memo
    cliques = _induced(G, G.vertices, memo).cliques
    spans = span_map(G, cliques)
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
            if G.is_module(vset):
                entry = _induced(G, vset, memo)
                split = (_wg_big_classes(entry), entry.graph.apices())
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


# ---------------------------------------------------------------------------
# The coloured modular decomposition tree


@dataclass
class ColouredTree:
    """Directed tree with a colour relation (vertex -> tuple of pairs)
    plus the payloads the canonisation recursion reads."""

    parents: list
    child_lists: list           # node -> its children, in creation order
    kinds: list                 # "root" | "component" | "arrangement" | "module"
    colours: dict               # node -> tuple of (m, n) pairs
    comp_set: dict = field(default_factory=dict)      # component node -> frozenset
    comp_lcanon: dict = field(default_factory=dict)   # component node -> LCanon | None
    comp_apices: dict = field(default_factory=dict)   # component node -> frozenset
    module_set: dict = field(default_factory=dict)    # module node -> frozenset
    module_record: dict = field(default_factory=dict) # module node -> ModuleRecord
    arr_group: dict = field(default_factory=dict)     # arrangement node -> group tag

    def children(self, v):
        return self.child_lists[v]

    def as_directed_tree(self) -> DirectedTree:
        return DirectedTree(self.parents)


def build_modular_tree(G: Graph, _memo=None) -> ColouredTree:
    """Construct the coloured decomposition tree: component vertices per
    distinct filtered span component, at most three arrangement vertices
    per component, and one module vertex per multi-vertex module."""
    memo = {} if _memo is None else _memo
    pgroups = decomposition_components(G, _memo=memo)
    comp_sets = sorted({comp for _, _, comp in pgroups}, key=_ckey)
    if frozenset(G.vertices) not in [
        comp for _, bound, comp in pgroups if bound == G.n
    ] and G.is_connected():
        raise RecognitionError("whole graph missing from decomposition components")
    parents = [None]
    child_lists = [[]]
    kinds = ["root"]
    colours = {0: ()}
    tree = ColouredTree(parents, child_lists, kinds, colours)

    def new_node(kind, parent):
        node = len(parents)
        parents.append(parent)
        child_lists.append([])
        child_lists[parent].append(node)
        kinds.append(kind)
        return node

    def add_component(comp, parent):
        node = new_node("component", parent)
        tree.comp_set[node] = comp
        if len(comp) == 1:
            tree.colours[node] = ()
            tree.comp_lcanon[node] = None
            tree.comp_apices[node] = frozenset()
            return node
        H = _induced(G, comp, memo).graph
        info = canon_L(H, _memo=memo)
        tree.comp_lcanon[node] = info
        tree.comp_apices[node] = H.apices()
        tree.colours[node] = tuple(sorted(info.edges))
        groups = {}
        for record in info.modules:
            groups.setdefault(record.group, []).append(record)
        for tag in sorted(groups):
            arr = new_node("arrangement", node)
            tree.colours[arr] = ()
            tree.arr_group[arr] = tag
            for record in sorted(groups[tag], key=lambda r: r.colour):
                mod = new_node("module", arr)
                tree.module_set[mod] = record.vertices
                tree.module_record[mod] = record
                counts = {}
                for p in record.colour:
                    counts[p] = counts.get(p, 0) + 1
                tree.colours[mod] = tuple(sorted(counts.items()))
                module = _induced(G, record.vertices, memo).graph
                for sub in sorted(module.components(), key=_ckey):
                    if sub not in comp_sets:
                        raise RecognitionError(
                            "module component missing from decomposition components",
                            certificate=sub,
                        )
                    add_component(sub, mod)
        return node

    for comp in sorted(G.components(), key=_ckey):
        add_component(comp, 0)
    return tree


# ---------------------------------------------------------------------------
# Canonisation over the tree


def interval_canon(G: Graph):
    """Canonical copy of an interval graph: edge set over [1, |V|].

    Raises RecognitionError with a certificate when the input is not an
    interval graph.
    """
    memo = {}  # vertex set -> _Induced, shared by every phase of this call
    interval_model(G, _memo=memo)  # full recognition; raises otherwise
    tree = build_modular_tree(G, _memo=memo)
    dtree = tree.as_directed_tree()
    compare_memo = {}

    def cmp_nodes(a, b):
        return coloured_compare(dtree, tree.colours, a, b, compare_memo)

    def canon_module(mod_node):
        kids = tree.children(mod_node)
        blocks = {c: canon_component(c) for c in kids}
        total = 0
        edges = set()
        for c in sorted(kids, key=functools.cmp_to_key(cmp_nodes)):
            bn, bedges = blocks[c]
            edges |= {(total + u, total + v) for u, v in bedges}
            total += bn
        return total, edges

    def canon_component(node):
        comp = tree.comp_set[node]
        if len(comp) == 1:
            return 1, set()
        info = tree.comp_lcanon[node]
        apices = tree.comp_apices[node]
        arr_nodes = tree.children(node)
        modules = [m for a in arr_nodes for m in tree.children(a)]
        if apices:
            total = len(comp)
            if not modules:
                return total, {(i, j) for i in range(1, total + 1) for j in range(i + 1, total + 1)}
            if len(modules) != 1:
                raise RecognitionError(
                    "apex component has more than one module", certificate=comp
                )
            sub_n, sub_edges = canon_module(modules[0])
            edges = set(sub_edges)
            for i in range(1, total + 1):
                for j in range(max(i + 1, sub_n + 1), total + 1):
                    edges.add((i, j))
            return total, edges
        # module-free pipeline component
        m = info.m
        splices = []  # (clique position, module node)
        if not modules:
            return info.size, set(info.edges)
        by_arr = {tree.arr_group[a]: a for a in arr_nodes}
        if not info.palindromic or m == 1:
            for mod in modules:
                rec = tree.module_record[mod]
                splices.append((rec.colour[0], mod))
            ordered_blocks = [mod for _, mod in sorted(splices)]
        else:
            low = by_arr.get("low")
            high = by_arr.get("high")
            mid = by_arr.get("mid")
            flip = False
            if low is not None and high is not None:
                flip = cmp_nodes(high, low) < 0
            elif low is None and high is not None:
                flip = True

            def position(rec):
                pos = min(rec.colour)
                if (rec.group == "low") == flip and rec.group != "mid":
                    pos = m + 1 - pos
                return pos if rec.group != "mid" else (m + 1) // 2

            ordered_blocks = []
            if mid is not None:
                ordered_blocks.extend(tree.children(mid))
            first, second = (high, low) if flip else (low, high)
            for arr in (first, second):
                if arr is None:
                    continue
                mods = sorted(
                    tree.children(arr), key=lambda mm: tree.module_record[mm].colour
                )
                ordered_blocks.extend(mods)
            splices = [(position(tree.module_record[mod]), mod) for mod in ordered_blocks]
        # replaced vertex per splice position: least canon vertex whose
        # interval is exactly that clique and no other
        intervals = info.intervals
        replaced = {}
        for pos, mod in splices:
            cand = [
                i + 1
                for i, iv in enumerate(intervals)
                if iv == (pos, pos) and (i + 1) not in replaced.values()
            ]
            if not cand:
                raise RecognitionError(
                    "no span-one vertex at module position", certificate=pos
                )
            replaced[mod] = cand[0]
        removed = sorted(replaced.values())

        def shift(x):
            return x - sum(1 for r in removed if r < x)

        adjacency = {i: set() for i in range(1, info.size + 1)}
        for u, v in info.edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        edges = {
            (shift(u), shift(v))
            for u, v in info.edges
            if u not in removed and v not in removed
        }
        offset = info.size - len(removed)
        blocks = {}
        for mod in ordered_blocks:
            bn, bedges = canon_module(mod)
            blocks[mod] = (offset, bn)
            edges |= {(offset + u, offset + v) for u, v in bedges}
            offset += bn
        for pos, mod in splices:
            z = replaced[mod]
            nbrs = [shift(x) for x in adjacency[z] if x not in removed]
            start, bn = blocks[mod]
            for x in nbrs:
                for t in range(1, bn + 1):
                    a, b = sorted((x, start + t))
                    edges.add((a, b))
        if offset != len(comp):
            raise RecognitionError(
                "assembled canon has wrong vertex count", certificate=comp
            )
        return offset, edges

    pieces = []
    for node in tree.children(0):
        n, edges = canon_component(node)
        pieces.append((n, tuple(sorted(edges))))
    pieces.sort()
    offset = 0
    edges = set()
    for n, block in pieces:
        edges |= {(offset + u, offset + v) for u, v in block}
        offset += n
    if offset != G.n:
        raise RecognitionError(
            "canonical copy has wrong vertex count", certificate=(offset, G.n)
        )
    return offset, tuple(sorted(edges))


# ---------------------------------------------------------------------------
# Interval models and recognition


def _component_clique_order(G: Graph, comp, memo) -> list:
    """A valid consecutive order of the component's max cliques."""
    entry = _induced(G, comp, memo)
    H, cliques = entry.graph, entry.cliques
    if H.n == 1 or len(cliques) == 1:
        return cliques
    apices = H.apices()
    if apices:
        rest = frozenset(v for v in H.vertices if v not in apices)
        order = []
        for sub in sorted(_induced(G, rest, memo).graph.components(), key=_ckey):
            order.extend(_component_clique_order(G, sub, memo))
        expanded = [frozenset(c | apices) for c in order]
        if sorted(expanded, key=_ckey) != sorted(cliques, key=_ckey):
            raise RecognitionError(
                "apex component cliques fail to stack", certificate=comp
            )
        return expanded
    part = entry.partition
    order = []
    for cell in part.cells:
        if len(cell) == 1:
            order.append(cell[0])
            continue
        sample = cell[0]
        module = next(
            cls for cls in part.modules if cls & sample
        )
        outside = frozenset(sample - module)
        for c in cell:
            if frozenset(c - module) != outside:
                raise RecognitionError(
                    "cell cliques disagree outside their module", certificate=c
                )
        sub_cliques = []
        for sub in sorted(_induced(G, module, memo).graph.components(), key=_ckey):
            sub_cliques.extend(_component_clique_order(G, sub, memo))
        expanded = [frozenset(sc | outside) for sc in sub_cliques]
        if sorted(expanded, key=_ckey) != sorted(cell, key=_ckey):
            raise RecognitionError(
                "module cliques fail to expand the cell", certificate=sample
            )
        order.extend(expanded)
    return order


def interval_model(G: Graph, _memo=None):
    """A verified minimal interval model: list of (vertex, left, right)
    with clique positions 1..m per component, components laid out on
    disjoint ranges.  Raises RecognitionError when no model exists."""
    memo = {} if _memo is None else _memo
    model = []
    offset = 0
    for comp in sorted(G.components(), key=_ckey):
        order = _component_clique_order(G, comp, memo)
        positions = {}
        for p, clique in enumerate(order, start=1):
            for v in clique:
                positions.setdefault(v, []).append(p)
        for v in sorted(comp, key=_vkey):
            ps = positions.get(v)
            if not ps:
                raise RecognitionError("vertex missing from every clique", certificate=v)
            model.append((v, offset + min(ps), offset + max(ps)))
        offset += len(order)
    spans = {v: (l, r) for v, l, r in model}
    for a in G.vertices:
        for b in G.vertices:
            if _vkey(a) >= _vkey(b):
                continue
            la, ra = spans[a]
            lb, rb = spans[b]
            meets = lb <= ra and la <= rb
            if meets != (b in G.adj[a]):
                raise RecognitionError(
                    "interval model disagrees with the graph", certificate=(a, b)
                )
    return model
