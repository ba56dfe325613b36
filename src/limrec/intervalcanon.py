"""Interval graph canonisation through modular decomposition.

Pipeline: max cliques from one maximum cardinality search, the seeded
reachability order on cliques, possible ends, the double collapse onto
the module-free quotient L, the coloured modular decomposition tree, and
finally a canonical copy assembled bottom-up over that tree.

A collapse names every vertex of its quotient by its flat class, the
frozenset of base vertices it stands for, singletons included; so the
second collapse's own graph is L.  The quotient is built from the images
of the max cliques, never from the edges, and its `cliques` are its one
linear clique order.  A clique order is held as one predecessor bitmask
per clique, and its classes come from one ranking: each clique's rank is
its number of predecessors.  Canonical edges are ascending tuples from
`_render` to the output; only a component with modules sorts, once.

`module_walk` finds the components of the graph and, recursively, of
each module's subgraph, once per graph on an explicit stack; the model,
the tree and the canonical copy are all built from it without recursion,
so no input costs a Python frame per level of module nesting.  Only the
input graph runs the clique search: each walked subgraph inherits its
cliques, in order, from the graph it is taken from.  A partition maps
each module to the index of the one cell that holds it.

Recognition is exact and certified: a graph that is not chordal is
rejected by the clique search with a chordless cycle of length at least
four, and the walk rejects others with their own certificates (a clique
with no possible end, an order that is not a strict weak order, a
partition check).  A canonical copy carries its numbering pi of the
input's vertices, and one linear check (`_check_copy`) that its edges
are pi(E) certifies the copy; every copy the assembly can build is an
interval graph, so the same check completes the recognition, rejecting
any other input with the least vertex pair on which the copy disagrees.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from operator import lt

from .errors import DomainError, LimrecError, RecognitionError
from .structures import Structure
from .treelogic import DirectedTree, coloured_keys


def _vkey(v):
    """Sort key usable for both base vertices (ints) and class vertices
    (frozensets of ints)."""
    if isinstance(v, frozenset):
        return (1, tuple(sorted(v)))
    return (0, v)


def _ckey(clique):
    return tuple(sorted(map(_vkey, clique)))


def _bits(x):
    """The positions of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class Graph:
    """Simple undirected graph over hashable vertices.

    A graph keeps what is derived from it: its max cliques, its modular
    partition and its module walk, each computed on first use."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(sorted(set(vertices), key=_vkey))
        self.adj = {v: set() for v in self.vertices}
        for a, b in edges:
            if a == b:
                continue
            if a not in self.adj or b not in self.adj:
                raise DomainError(f"edge {(a, b)!r} has an endpoint outside the vertices")
            self.adj[a].add(b)
            self.adj[b].add(a)
        self.adj = {v: frozenset(ns) for v, ns in self.adj.items()}

    @classmethod
    def _from_adj(cls, adj) -> "Graph":
        """The graph of a symmetric adjacency map, vertex -> frozenset of
        neighbours, taken as it is."""
        graph = cls.__new__(cls)
        graph.vertices = tuple(sorted(adj, key=_vkey))
        graph.adj = adj
        return graph

    @cached_property
    def cliques(self):
        """max_cliques(self), computed once."""
        return max_cliques(self)

    @cached_property
    def spans(self):
        """span_map(self), computed once."""
        return span_map(self)

    @cached_property
    def holders(self):
        """Each vertex's clique bitmask: bit i is set when the vertex lies
        in cliques[i].  Computed once from `cliques`."""
        holders = dict.fromkeys(self.vertices, 0)
        for i, c in enumerate(self.cliques):
            bit = 1 << i
            for v in c:
                holders[v] |= bit
        return holders

    @cached_property
    def members(self):
        """Each max clique's vertex bitmask: bit k is set when vertices[k]
        lies in the clique.  Computed once from `cliques`."""
        position = {v: k for k, v in enumerate(self.vertices)}
        return [sum(1 << position[v] for v in c) for c in self.cliques]

    @cached_property
    def partition(self) -> "ModularPartition":
        """modular_partition(self), computed once."""
        return modular_partition(self)

    @cached_property
    def walk(self) -> "ModuleWalk":
        """module_walk(self), computed once."""
        return module_walk(self)

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
        """The subgraph induced by `keep`, a subset of the vertices."""
        keep = frozenset(keep)
        return Graph._from_adj({a: self.adj[a] & keep for a in keep})

    def components(self):
        """Vertex sets of the connected components, in `_ckey` order: each
        is found from its least vertex, and they are disjoint.  Found once;
        the list is shared, so callers must not change it."""
        return self._components

    @cached_property
    def _components(self):
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

    def apices(self):
        """Vertices adjacent to every other vertex."""
        return frozenset(v for v in self.vertices if len(self.adj[v]) == self.n - 1)


def max_cliques(G: Graph):
    """All max cliques, from one maximum cardinality search (Tarjan and
    Yannakakis): each step visits an unvisited vertex with the most
    visited neighbours.  A vertex whose count is at most the previous
    vertex's starts a new clique, itself and its visited neighbours; any
    other vertex joins the current clique (Blair and Peyton).

    The same pass checks that the reverse visit order eliminates
    perfectly: a vertex's visited neighbours, except the last one
    visited, must all be neighbours of that last one.  A graph that fails
    is not chordal, so not an interval graph, and is rejected with a
    chordless cycle of length at least four."""
    adj = G.adj
    count = dict.fromkeys(G.vertices, 0)   # unvisited vertex -> visited neighbours
    buckets = [dict.fromkeys(G.vertices)]  # count -> its vertices, in arrival order
    earlier = {v: [] for v in G.vertices}  # visited neighbours, in visit order
    top = 0
    previous = 0
    cliques = []
    for _ in G.vertices:
        while not buckets[top]:
            top -= 1
        v = next(iter(buckets[top]))
        del buckets[top][v], count[v]
        seen = earlier.pop(v)
        if seen and not adj[seen[-1]].issuperset(seen[:-1]):
            cycle = _chordless_cycle(G, v, seen, count)
            raise RecognitionError("not chordal: not an interval graph", certificate=cycle)
        if len(seen) <= previous:
            cliques.append(seen + [v])
        else:
            cliques[-1].append(v)
        previous = len(seen)
        for w in adj[v]:
            k = count.get(w)
            if k is None:
                continue
            del buckets[k][w]
            count[w] = k + 1
            if k + 1 == len(buckets):
                buckets.append({})
            buckets[k + 1][w] = None
            earlier[w].append(v)
        top = min(top + 1, len(buckets) - 1)
    return sorted(map(frozenset, cliques), key=_ckey)


def _chordless_cycle(G: Graph, v, seen, unvisited):
    """The certificate of a failed elimination check at v, whose visited
    neighbours, in visit order, are `seen`: with p the last of them and u
    the first that is not adjacent to p, a shortest path from u to p
    through visited vertices outside N(v) - {u, p} closes a chordless
    cycle through v of length at least four."""
    p = seen[-1]
    u = next(x for x in seen if x not in G.adj[p])
    parent = {u: None}
    queue = deque([u])
    while queue and p not in parent:
        x = queue.popleft()
        for y in G.adj[x]:
            if (y not in parent and y != v and y not in unvisited
                    and (y == p or y not in G.adj[v])):
                parent[y] = x
                queue.append(y)
    if p not in parent:
        raise LimrecError(f"no chordless cycle through {v!r}, {u!r} and {p!r}")
    path = [p]
    while path[-1] != u:
        path.append(parent[path[-1]])
    return (v, *reversed(path))


def span_map(G: Graph):
    """Each vertex's number of max cliques."""
    return {v: h.bit_count() for v, h in G.holders.items()}


@dataclass
class CliquePreorder:
    """The seeded clique relation for one start clique: bit i of pred[j]
    means clique i comes strictly before clique j.

    The relation is the complete fixed point only when `asymmetric` is
    true: the propagation stops at the first pair whose reverse it
    already holds, since from then on the order can no longer be
    asymmetric."""

    cliques: list
    start: int
    pred: list
    asymmetric: bool
    classes: list = field(default_factory=list)  # incomparability classes, ordered

    @property
    def pairs(self):
        """The relation as index pairs (i, j), i before j."""
        return {(i, j) for j, p in enumerate(self.pred) for i in _bits(p)}


def clique_preorder(G: Graph, M) -> CliquePreorder:
    """Least fixed point of the seeded order: start clique before all
    others, then propagate through overlap witnesses (reachability in
    the pair graph).

    A popped pair (E, D) puts the cliques meeting E - D before D and the
    cliques meeting D - E after E, each set found as the OR of its
    vertices' holder bitmasks, with no disjointness test.  A vertex whose
    cliques were already put before D (after E) adds nothing, so each
    clique keeps the vertices read for it, and each vertex is read at
    most once per clique and rule."""
    cliques = G.cliques
    index = {c: i for i, c in enumerate(cliques)}
    if M not in index:
        raise DomainError("start clique is not a max clique")
    m = len(cliques)
    start = index[M]
    members = G.members
    pred = [1 << start] * m
    pred[start] = 0
    succ = [0] * m
    succ[start] = ((1 << m) - 1) ^ (1 << start)
    # the vertices of D and those whose cliques were put before D, and the
    # vertices of C and those whose cliques were put after C
    before, after = members[:], members[:]
    work = [(start, j) for j in range(m) if j != start]
    symmetric = False
    while work and not symmetric:
        e, d = work.pop()
        # (E before D) and C meets E - D  =>  C before D
        fresh = members[e] & ~before[d]
        if fresh:
            before[d] |= fresh
            new = _meeting(G, fresh) & ~pred[d]
            pred[d] |= new
            symmetric |= bool(new & succ[d])
            for c in _bits(new):
                succ[c] |= 1 << d
                work.append((c, d))
        # (C before E) and D' meets E - C  =>  C before D'
        # here the popped pair plays the role (C, E) = (e, d)
        fresh = members[d] & ~after[e]
        if fresh:
            after[e] |= fresh
            new = _meeting(G, fresh) & ~succ[e]
            succ[e] |= new
            symmetric |= bool(new & pred[e])
            for d2 in _bits(new):
                pred[d2] |= 1 << e
                work.append((e, d2))
    # a symmetric pair is flagged when its second member is added, and the
    # seeds (start, j) hold no reverse of one another
    asymmetric = not symmetric
    classes = _ranked_classes(cliques, pred) if asymmetric else []
    return CliquePreorder(cliques, start, pred, asymmetric, classes)


def _meeting(G: Graph, vbits):
    """The cliques meeting a vertex set, given as a bitmask over the
    positions in G.vertices: the OR of its vertices' holder bitmasks."""
    vertices, holders = G.vertices, G.holders
    meeting = 0
    while vbits:
        low = vbits & -vbits
        meeting |= holders[vertices[low.bit_length() - 1]]
        vbits ^= low
    return meeting


def _ranked_classes(cliques, pred):
    """The incomparability classes of the relation whose predecessor
    bitmasks are `pred`, in order.  Each clique's rank is its number of
    predecessors, and the relation is a strict weak order exactly when
    each clique's predecessors are the cliques of lower rank; the classes
    are then the equal-rank groups, members ascending."""
    m = len(cliques)
    rank = [p.bit_count() for p in pred]
    groups = {}
    for i in range(m):
        groups.setdefault(rank[i], []).append(i)
    classes = [groups[r] for r in sorted(groups)]
    lower = 0
    for group in classes:
        if any(pred[j] != lower for j in group):
            break
        lower |= sum(1 << i for i in group)
    else:
        return classes
    i, j = next(
        (i, j) for i in range(m) for j in range(m)
        if i != j and bool(pred[j] >> i & 1) != (rank[i] < rank[j])
    )
    raise RecognitionError(
        "clique order is not a strict weak order", certificate=(cliques[i], cliques[j])
    )


def _possible_ends(G: Graph):
    """The asymmetric preorders seeded at each clique in clique order, each
    found only when asked for.  An end of a consecutive clique order holds
    a vertex in no other max clique, so only such cliques are tried."""
    spans = G.spans
    for M in G.cliques:
        if 1 not in map(spans.__getitem__, M):
            continue
        try:
            pre = clique_preorder(G, M)
        except RecognitionError:
            continue
        if pre.asymmetric:
            yield pre


def _flat(v):
    """A vertex as the frozenset of base vertices it stands for: a class
    vertex is its own class, a base vertex (an int) the singleton."""
    return v if isinstance(v, frozenset) else frozenset((v,))


def _images(cliques, vertex_class):
    """Each clique as the set of the classes of its vertices."""
    return [frozenset(map(vertex_class.__getitem__, c)) for c in cliques]


def _quotient(images) -> Graph:
    """A graph with each vertex replaced by its class, from the images of
    its max cliques: a class's neighbours are the other classes of the
    images that hold it.  Exact for any graph whose cliques cover its
    edges, and no edge is read."""
    meets = {}
    for i, image in enumerate(images):
        bit = 1 << i
        for x in image:
            meets[x] = meets.get(x, 0) | bit
    adj = {}
    for x, meet in meets.items():
        neighbours = set().union(*(images[i] for i in _bits(meet)))
        neighbours.discard(x)
        adj[x] = frozenset(neighbours)
    return Graph._from_adj(adj)


@dataclass
class Collapse:
    graph: Graph                # the quotient; its cliques are in linear order
    vertex_class: dict          # original vertex -> quotient vertex, a flat class
    classes: list               # original clique indices per quotient clique, in order


def collapse_incomparables(G: Graph, M) -> Collapse:
    """Quotient G by the modules spanned by maximal incomparability
    classes of the order seeded at M (a possible end)."""
    pre = clique_preorder(G, M)
    if not pre.asymmetric:
        raise RecognitionError(
            "start clique is not a possible end", certificate=M
        )
    return _collapse(G, pre)


def _collapse(G: Graph, pre: CliquePreorder) -> Collapse:
    """collapse_incomparables for an asymmetric preorder already computed.
    Every quotient vertex, singletons included, is named by its flat
    class: the frozenset of the base vertices it stands for.  The quotient
    keeps the linear clique order as its cliques."""
    cliques = pre.cliques
    spans = G.spans
    vertex_class = {v: _flat(v) for v in G.vertices}
    for group in pre.classes:
        if len(group) < 2:
            continue
        s_set = {v for i in group for v in cliques[i] if spans[v] <= len(group)}
        merged = frozenset().union(*map(_flat, s_set))
        for v in s_set:
            vertex_class[v] = merged
    images = _images(cliques, vertex_class)
    clique_order = []
    for group in pre.classes:
        image = images[group[0]]
        for i in group:
            if images[i] != image:
                raise RecognitionError(
                    "incomparability class does not collapse to one clique",
                    certificate=(cliques[group[0]], cliques[i]),
                )
        clique_order.append(image)
    quotient = _quotient(images)
    quotient.cliques = clique_order
    return Collapse(quotient, vertex_class, pre.classes)


@dataclass
class ModularPartition:
    cells: list                 # partition of the max cliques, each in clique order
    modules: dict               # multi-vertex module -> index of its cell, in cell order
    vertex_class: dict          # vertex -> frozenset class (singletons too)
    quotient: Graph             # the graph L, its cliques in one linear order


def modular_partition(G: Graph) -> ModularPartition:
    """The maximal clique-set partition of a connected graph.

    An apex graph (complete and one-vertex graphs included) has one cell
    holding every max clique; its non-apex rest, when there is one, is the
    one module, so L is the apices plus one vertex for the rest, with one
    clique at position 0.  Otherwise the double collapse applies: collapse
    at any possible end, then at the top clique of the quotient.  Cell k
    holds the cliques of the first collapse's classes in the second's
    class k, and a module lies in the one cell whose image holds it."""
    if len(G.components()) != 1:
        raise DomainError("modular partition needs a connected graph")
    cliques = G.cliques
    apices = G.apices()
    if apices:
        rest = frozenset(G.vertices) - apices
        vertex_class = {v: rest if v in rest else frozenset({v}) for v in G.vertices}
        quotient = _quotient(_images(cliques, vertex_class))
        quotient.cliques = [frozenset(quotient.vertices)]
        return ModularPartition([list(cliques)], {rest: 0} if rest else {}, vertex_class, quotient)
    end = next(_possible_ends(G), None)
    if end is None:
        raise RecognitionError(
            "no possible end: not an interval graph", certificate=G.vertices
        )
    first = _collapse(G, end)
    second = collapse_incomparables(first.graph, first.graph.cliques[-1])
    vertex_class = {v: second.vertex_class[x] for v, x in first.vertex_class.items()}
    cells = [[cliques[i] for i in sorted(i for j in group for i in first.classes[j])]
             for group in second.classes]
    modules = {}
    for k, image in enumerate(second.graph.cliques):
        big = [cls for cls in image if len(cls) > 1]
        if len(big) > 1:
            raise RecognitionError("cell yields more than one module")
        if big:
            if big[0] in modules:
                raise RecognitionError("module vertex must have span one", certificate=big[0])
            modules[big[0]] = k
    if len(cells) < 3:
        raise RecognitionError(
            "connected apex-free interval graphs have at least three cells",
            certificate=G.vertices,
        )
    return ModularPartition(cells, modules, vertex_class, second.graph)


# ---------------------------------------------------------------------------
# The module walk


@dataclass(eq=False)
class WalkEntry:
    """A component met by the module walk: a connected component of the
    walked graph or of a module's subgraph.  `graph` is its induced
    subgraph, taken once, or None for a component that is the whole walked
    graph: that graph keeps the walk, and a walk holding it would be a
    reference cycle."""

    vertices: frozenset
    graph: Graph | None
    partition: ModularPartition
    modules: dict               # module -> WalkEntry per component, in _ckey order
    outside: dict               # module -> the vertices of its cell outside it


@dataclass
class ModuleWalk:
    components: list            # WalkEntry per connected component, in _ckey order
    entries: list               # every WalkEntry, each before those of its modules


def module_walk(G: Graph) -> ModuleWalk:
    """Every connected component of G and, recursively, of each module's
    subgraph, in pre-order on an explicit stack: an entry's partition is
    computed when it is reached, then its modules are walked in partition
    order.  Each module's subgraph, and each component's, is taken once.
    Only G runs the clique search: a component inherits the cliques inside
    it, and a module its cell's cliques less the cell's vertices outside
    the module, which the walk checks are the same for every clique."""
    components = []
    entries = []
    stack = [
        (components, comp, None if len(comp) == G.n else _inherit(G.subgraph(comp), G.cliques))
        for comp in reversed(G.components())
    ]
    while stack:
        siblings, vertices, graph = stack.pop()
        H = G if graph is None else graph
        part = H.partition
        entry = WalkEntry(vertices, graph, part, {}, {})
        siblings.append(entry)
        entries.append(entry)
        pending = []
        for module, k in part.modules.items():
            cell = part.cells[k]
            entry.outside[module] = outside = cell[0] - module
            disagree = [c for c in cell if c - module != outside]
            if disagree:
                raise RecognitionError(
                    "cell cliques disagree outside their module", certificate=disagree[0]
                )
            M = _inherit(H.subgraph(module), [c - outside for c in cell])
            entry.modules[module] = subs = []
            pending += [
                (subs, comp, M if len(comp) == M.n else _inherit(M.subgraph(comp), M.cliques))
                for comp in M.components()
            ]
        stack.extend(reversed(pending))
    return ModuleWalk(components, entries)


def _inherit(H: Graph, cliques) -> Graph:
    """H, its max cliques set to those of `cliques` inside it, in order."""
    keep = frozenset(H.vertices)
    H.cliques = [c for c in cliques if c <= keep]
    return H


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
    edges: tuple                # canonical copy of L on [1, size], ascending
    spans: dict                 # vertex of L -> (l, r) in the kept clique order
    m: int                      # number of max cliques of L
    palindromic: bool           # the two orders render identically
    modules: list               # ModuleRecord per multi-vertex module


def _render(intervals):
    """The ascending edges of the intervals, sorted by (l, r) and numbered
    in that order: an interval meets exactly the later intervals whose
    left end is at most its right end."""
    lefts = [l for l, _ in intervals]
    return tuple((i, j) for i, (_, r) in enumerate(intervals, 1)
                 for j in range(i + 1, bisect_right(lefts, r) + 1))


def _intervals(order):
    """Each vertex of a clique order -> the (first, last) 1-based
    positions of the cliques that hold it."""
    out = {}
    for p, clique in enumerate(order, start=1):
        for v in clique:
            out[v] = (out.get(v, (p,))[0], p)
    return out


def _mirror(spans, m):
    """Each vertex's interval in the reversed order of m cliques."""
    return {x: (m + 1 - r, m + 1 - l) for x, (l, r) in spans.items()}


def _singles(spans):
    """L's singleton vertices by ascending interval: their base vertices,
    and their intervals."""
    order = sorted((x for x in spans if len(x) == 1), key=spans.__getitem__)
    return [v for (v,) in order], [spans[x] for x in order]


def canon_L(H: Graph) -> LCanon:
    """Canonical ordered copy of the module-collapsed quotient of a
    connected graph, with per-module position data.

    Every component reads L from its partition.  The L of an apex
    component is one clique, in which the one module (the non-apex rest,
    if any) sits at position 1.  The kept clique order is the one with the
    lexicographically smaller rendering; when both render identically the
    orders are reported palindromic.
    """
    part = H.partition
    L = part.quotient
    m = len(L.cliques)
    spans = _intervals(L.cliques)
    mirrored = _mirror(spans, m)
    fwd, bwd = sorted(spans.values()), sorted(mirrored.values())
    palindromic = fwd == bwd
    reverse = bwd < fwd
    edges = _render(min(fwd, bwd))

    modules = []
    for cls, k in part.modules.items():
        pos = m - k if reverse else k + 1
        if palindromic and m > 1:
            mirror = m + 1 - pos
            colour = tuple(sorted((pos, mirror)))
            group = "mid" if pos == mirror else ("low" if pos < mirror else "high")
        else:
            colour = (pos,)
            group = "single"
        modules.append(ModuleRecord(cls, colour, group))
    return LCanon(L.n, edges, mirrored if reverse else spans, m, palindromic, modules)


# ---------------------------------------------------------------------------
# The coloured modular decomposition tree


@dataclass
class ColouredTree:
    """Directed tree with a colour relation (vertex -> tuple of pairs)
    plus the payloads the canonisation reads.  Its DirectedTree is built
    once, on first use, after the last node is added."""

    parents: list
    kinds: list                 # "root" | "component" | "arrangement" | "module"
    colours: dict               # node -> tuple of (m, n) pairs
    comp_set: dict = field(default_factory=dict)      # component node -> frozenset
    comp_lcanon: dict = field(default_factory=dict)   # component node -> LCanon
    module_record: dict = field(default_factory=dict) # module node -> ModuleRecord
    arr_group: dict = field(default_factory=dict)     # arrangement node -> group tag

    @cached_property
    def _directed(self) -> DirectedTree:
        return DirectedTree(self.parents)

    def children(self, v):
        """The children of node v, ascending, which is creation order."""
        return self._directed.children[v]

    def as_directed_tree(self) -> DirectedTree:
        return self._directed


def build_modular_tree(G: Graph) -> ColouredTree:
    """Construct the coloured decomposition tree from the module walk: one
    component vertex per connected component of G and of each module's
    subgraph, at most three arrangement vertices per component, and one
    module vertex per multi-vertex module.  Nodes are numbered in
    pre-order on an explicit stack, each module's subtree before the next
    module.  The empty graph gets the root alone."""
    tree = ColouredTree([None], ["root"], {0: ()})
    # (kind, parent node, payload), popped in pre-order
    stack = [("component", 0, entry) for entry in reversed(G.walk.components)]
    while stack:
        kind, parent, payload = stack.pop()
        node = len(tree.parents)
        tree.parents.append(parent)
        tree.kinds.append(kind)
        if kind == "component":
            entry = payload
            H = G if entry.graph is None else entry.graph
            info = canon_L(H)
            tree.comp_set[node] = entry.vertices
            tree.comp_lcanon[node] = info
            tree.colours[node] = info.edges
            groups = {}
            for record in info.modules:
                groups.setdefault(record.group, []).append(record)
            children = [
                ("arrangement", (tag, sorted(groups[tag], key=lambda r: r.colour), entry))
                for tag in sorted(groups)
            ]
        elif kind == "arrangement":
            tag, records, entry = payload
            tree.colours[node] = ()
            tree.arr_group[node] = tag
            children = [("module", (r, entry.modules[r.vertices])) for r in records]
        else:
            record, subs = payload
            tree.module_record[node] = record
            tree.colours[node] = tuple(sorted(Counter(record.colour).items()))
            children = [("component", sub) for sub in subs]
        stack.extend((child_kind, node, item) for child_kind, item in reversed(children))
    return tree


# ---------------------------------------------------------------------------
# Canonisation over the tree


def interval_canon(G: Graph):
    """Canonical copy of an interval graph: (|V|, its edges over [1, |V|]
    as an ascending tuple).

    Raises RecognitionError with a certificate when the input is not an
    interval graph.  The blocks of the component and module nodes are
    assembled in decreasing node index: the tree is numbered in
    pre-order, so every child's block is done before its parent's.  A
    block is (labels, edges): its vertices of G in canonical order, and
    its ascending edges over [1, len(labels)].  The copy is returned only
    once `_check_copy` has certified it against G.
    """
    tree = build_modular_tree(G)
    keys = coloured_keys(tree.as_directed_tree(), tree.colours)
    blocks = {}  # node -> (labels, edges), until its parent reads it
    for node in range(len(tree.parents) - 1, 0, -1):
        if tree.kinds[node] == "component":
            blocks[node] = _canon_component(tree, keys, blocks, node)
        elif tree.kinds[node] == "module":
            kids = sorted(tree.children(node), key=keys.__getitem__)
            blocks[node] = _side_by_side(map(blocks.pop, kids))
    roots = sorted(map(blocks.pop, tree.children(0)), key=lambda b: (len(b[0]), b[1]))
    labels, edges = _side_by_side(roots)
    _check_copy(G, labels, edges)
    return len(labels), edges


def _side_by_side(blocks):
    """The disjoint union of (labels, ascending edges) blocks, each
    numbered after the blocks before it; its edges ascend too."""
    labels, edges = [], []
    for sub, block in blocks:
        total = len(labels)
        edges += [(total + u, total + v) for u, v in block]
        labels += sub
    return labels, tuple(edges)


def _check_copy(G: Graph, labels, edges):
    """Certify a copy of G: canonical vertex i stands for labels[i - 1],
    and `edges` must be pi(E), the image of G's edges under that
    numbering, ascending.  It is when the edges ascend strictly, are as
    many as G's, and each is the image of an edge of G: one pass over the
    edges.  Labels that are not a permutation of the vertices, and edges
    that are not pairs over [1, n] or are pi(E) out of order, are a bug;
    any other copy rejects G with the least vertex pair, in `_vkey` order,
    on which it and G disagree."""
    adj, at = G.adj, dict(enumerate(labels, 1))
    if len(labels) != G.n or set(labels) != adj.keys():
        raise LimrecError("canonical labels are not a permutation of the vertices")
    if (2 * len(edges) == sum(map(len, adj.values())) and all(map(lt, edges, edges[1:]))
            and all(i < j and at.get(j) in adj.get(at.get(i), ()) for i, j in edges)):
        return
    number = {v: i for i, v in at.items()}
    image = {(i, j) for a, i in number.items() for j in map(number.__getitem__, adj[a]) if i < j}
    wrong = image.symmetric_difference(edges)
    if not wrong or not all(0 < i < j <= G.n for i, j in wrong):
        raise LimrecError("canonical edges are not ascending pairs over the numbering")
    pairs = (sorted((at[i], at[j]), key=_vkey) for i, j in wrong)
    a, b = min(pairs, key=lambda pair: tuple(map(_vkey, pair)))
    raise RecognitionError("interval model disagrees with the graph", certificate=(a, b))


def _canon_component(tree: ColouredTree, keys, blocks, node):
    """The canonical block of a component node: L's singleton vertices,
    rendered from their intervals in the orientation the block lays L out
    in and labelled by their base vertices, then each module's block, taken
    out of `blocks`, in place of the module's vertex.  The edges of L, of
    the blocks and of the splices are disjoint but interleave, so they are
    sorted once."""
    info = tree.comp_lcanon[node]
    arr_nodes = tree.children(node)
    modules = [m for a in arr_nodes for m in tree.children(a)]
    if not modules:  # module-free, or a complete apex component
        return _singles(info.spans)[0], info.edges
    if info.m == 1:  # an apex component: the one module's block, then the apices
        sub, edges = blocks.pop(modules[0])
        labels = sub + _singles(info.spans)[0]
        total = len(labels)
        edges += tuple((i, j) for i in range(1, total + 1)
                       for j in range(max(i + 1, len(sub) + 1), total + 1))
        return labels, tuple(sorted(edges))
    # an apex-free component, ordered by the double collapse
    spans = info.spans
    if not info.palindromic:
        ordered_blocks = sorted(modules, key=lambda mod: tree.module_record[mod].colour)
    else:
        by_arr = {tree.arr_group[a]: a for a in arr_nodes}
        low, high, mid = map(by_arr.get, ("low", "high", "mid"))
        # mirror L when that puts the arrangement of smaller key first
        if high is not None and (low is None or keys[high] < keys[low]):
            spans = _mirror(spans, info.m)
            low, high = high, low
        # an arrangement's modules are in colour order already
        ordered_blocks = [mod for arr in (mid, low, high) if arr is not None
                          for mod in tree.children(arr)]
    labels, intervals = _singles(spans)
    edges = list(_render(intervals))
    # each module's block, numbered after the singletons, meets those whose
    # interval holds the module's one position
    for mod in ordered_blocks:
        sub, block = blocks.pop(mod)
        offset = len(labels)
        pos, _ = spans[tree.module_record[mod].vertices]
        edges += [(offset + u, offset + v) for u, v in block]
        edges += [(x, offset + t) for x, (l, r) in enumerate(intervals, 1) if l <= pos <= r
                  for t in range(1, len(sub) + 1)]
        labels += sub
    return labels, tuple(sorted(edges))


# ---------------------------------------------------------------------------
# Interval models and recognition


def _clique_order(entry: WalkEntry, orders) -> list:
    """A consecutive order of the max cliques of a walk entry's component:
    the cells in order, each module's cell replaced by the orders of the
    module's components, read from `orders`, with the cell's vertices
    outside the module added back to each clique."""
    blocks = list(entry.partition.cells)
    for module, k in entry.partition.modules.items():
        outside = entry.outside[module]
        blocks[k] = [sc | outside for sub in entry.modules[module] for sc in orders[sub]]
    return [c for block in blocks for c in block]


def interval_model(G: Graph):
    """A verified minimal interval model: list of (vertex, left, right)
    with clique positions 1..m per component, components laid out on
    disjoint ranges.  Clique orders are built bottom-up over the module
    walk, and the model is verified by `_check_copy` on the copy its
    intervals render.  Raises RecognitionError when no model exists."""
    walk = G.walk
    orders = {}
    for entry in reversed(walk.entries):
        orders[entry] = _clique_order(entry, orders)
    model = []
    offset = 0
    for entry in walk.components:
        order = orders[entry]
        interval = _intervals(order)
        for v in sorted(entry.vertices, key=_vkey):
            if v not in interval:
                raise RecognitionError("vertex missing from every clique", certificate=v)
            first, last = interval[v]
            model.append((v, offset + first, offset + last))
        offset += len(order)
    ordered = sorted(model, key=lambda t: t[1:])
    _check_copy(G, [v for v, _, _ in ordered], _render([t[1:] for t in ordered]))
    return model
