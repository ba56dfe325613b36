"""Directed-tree machinery: subtree isomorphism and a canonical subtree
order decided through native recursion graphs, plus tree canonisation and
Boolean circuit evaluation.

The recursion graphs ("gadgets") live over the tuple space
N(T) x V(T)^4 x N(T) and are queried through the generic engines; they
are built directly as labelled graphs with analytic out-neighbour,
in-degree and label functions, never materialized.  Trees of every size
go through the gadgets: a vertex's type is a plain int that the engines
never check against the number sort, so the paper's n >= 4 (type 4 must
be a number of N(T)) does not apply.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import DomainError, LimrecError, RecognitionError
from .evaluator import LabelledGraph, evaluate, x_membership
from .structures import Structure
from .syntax import parse_formula, svar


class DirectedTree:
    """A rooted directed tree given by a parent array (root has None)."""

    def __init__(self, parents):
        parents = list(parents)
        n = len(parents)
        if n < 1:
            raise DomainError("tree must have at least one vertex")
        roots = [v for v, p in enumerate(parents) if p is None]
        if len(roots) != 1:
            raise DomainError(f"tree must have exactly one root, found {len(roots)}")
        self.root = roots[0]
        self.n = n
        self.parent = parents
        self.children = [[] for _ in range(n)]
        for v, p in enumerate(parents):
            if p is None:
                continue
            if not (0 <= p < n):
                raise DomainError(f"parent index {p} out of range")
            self.children[p].append(v)
        # detect cycles / reachability: every vertex must reach the root
        self.size = [0] * n
        order = []
        stack = [self.root]
        seen = {self.root}
        while stack:
            v = stack.pop()
            order.append(v)
            for c in self.children[v]:
                if c in seen:
                    raise DomainError("cycle in parent array")
                seen.add(c)
                stack.append(c)
        if len(order) != n:
            raise DomainError("parent array is not connected to the root")
        for v in reversed(order):
            self.size[v] = 1 + sum(self.size[c] for c in self.children[v])
        self._tables = None

    @classmethod
    def from_structure(cls, structure: Structure) -> "DirectedTree":
        n = structure.universe_size
        parents = [None] * n
        for a, b in structure.binary_rel("E"):
            if parents[b] is not None:
                raise RecognitionError(f"vertex {b} has two parents")
            parents[b] = a
        try:
            return cls(parents)
        except DomainError as exc:
            raise RecognitionError(f"not a directed tree: {exc}") from None

    @classmethod
    def from_parent_line(cls, text: str) -> "DirectedTree":
        toks = text.split()
        if toks and toks[0] == "parents":
            toks = toks[1:]
        vals = [int(t) for t in toks]
        try:
            return cls([None if p < 0 else p for p in vals])
        except DomainError as exc:
            raise RecognitionError(f"not a directed tree: {exc}") from None

    def tables(self):
        if self._tables is None:
            self._tables = _TreeTables(self)
        return self._tables


class _TreeTables:
    """Per-tree derived data shared by the gadgets."""

    def __init__(self, tree: DirectedTree):
        self.tree = tree
        # (v, s) -> the children of v of subtree size s, ascending
        self.kids_by_size = {}
        for c, p in enumerate(tree.parent):
            if p is not None:
                self.kids_by_size.setdefault((p, tree.size[c]), []).append(c)
        # profile[v] = (size(v), (-s, count), ...) over the child sizes s of
        # v, ascending; it orders like the dense (size(v), count of size 1,
        # ..., count of size size(v) - 1) at a length linear in the degree
        counts = [[] for _ in range(tree.n)]
        for (v, s), kids in sorted(self.kids_by_size.items()):
            counts[v].append((-s, len(kids)))
        self.profile = [(tree.size[v],) + tuple(counts[v]) for v in range(tree.n)]
        self.iso_cache = {}
        self.order_cache = {}
        self._theta = {}
        self._good = {}
        self._iso_gadget = None
        self._order_gadget = None
        self._canon_graph = None

    def kids_of_size(self, v, s):
        return self.kids_by_size.get((v, s), ())

    def easy(self, v, w) -> bool:
        """The pair fails the size/child-count screening of the recursive
        isomorphism procedure."""
        return self.profile[v] != self.profile[w]

    def theta(self, u, t) -> int:
        """Number of children of u whose subtree is isomorphic to T_t."""
        key = (u, t)
        cached = self._theta.get(key)
        if cached is None:
            cached = sum(
                1
                for c in self.kids_of_size(u, self.tree.size[t])
                if tree_isomorphic(self.tree, c, t)
            )
            self._theta[key] = cached
        return cached

    def good(self, v, w, vh) -> bool:
        """vh is a good child of v against w: v has more copies of T_vh
        than w, and all strictly smaller child classes are balanced."""
        key = (v, w, vh)
        cached = self._good.get(key)
        if cached is None:
            cached = self.theta(v, vh) > self.theta(w, vh) and all(
                self.theta(v, c) == self.theta(w, c)
                for c in self.tree.children[v]
                if self.tree.size[c] < self.tree.size[vh]
            )
            self._good[key] = cached
        return cached

    def iso_gadget(self):
        if self._iso_gadget is None:
            self._iso_gadget = _IsoGadget(self)
        return self._iso_gadget

    def order_gadget(self):
        if self._order_gadget is None:
            self._order_gadget = _OrderGadget(self)
        return self._order_gadget

    def canon_graph(self):
        if self._canon_graph is None:
            self._canon_graph = _CanonGraph(self)
        return self._canon_graph


class _IsoGadget(LabelledGraph):
    """Decision graph for subtree isomorphism queries.

    Vertex roles, encoded (type, v, w, vhat, what, k):
      type 0  (0,v,w,v,w,0)      "is T_v iso to T_w?"
      type 1  (1,v,w,vh,w,0)     "does child vh of v have a partner?"
      type 2  (2,v,w,vh,wh,k)    "is wh a partner of vh with multiplicity k?"
      type 3  (3,v,w,vh,wh,k)    counts partners of vh among w's children
      type 4  (4,v,w,vh,wh,k)    counts partners of wh among v's children
    """

    def __init__(self, tables: _TreeTables):
        super().__init__()
        self.tb = tables
        self.tree = tables.tree

    def out_neighbours(self, vx):
        t, v, w, vh, wh, k = vx
        tb, tree = self.tb, self.tree
        if t == 0:
            if (vh, wh, k) != (v, w, 0) or tb.easy(v, w):
                return ()
            return tuple((1, v, w, c, w, 0) for c in tree.children[v])
        if tb.easy(v, w):
            return ()
        if t == 1:
            if wh != w or k != 0 or tree.parent[vh] != v:
                return ()
            s = tree.size[vh]
            cap = len(tb.kids_of_size(v, s))
            return tuple(
                (2, v, w, vh, c, kk)
                for c in tb.kids_of_size(w, s)
                for kk in range(1, cap + 1)
            )
        # shared validity for types 2-4
        if tree.parent[vh] != v or tree.parent[wh] != w:
            return ()
        s = tree.size[vh]
        if tree.size[wh] != s:
            return ()
        cap = len(tb.kids_of_size(v, s))
        if not (1 <= k <= cap):
            return ()
        if t == 2:
            first = (0, vh, wh, vh, wh, 0)
            if cap == 1:
                return (first,)
            return (first, (3, v, w, vh, wh, k), (4, v, w, vh, wh, k))
        if cap < 2:
            return ()
        if t == 3:
            return tuple((0, vh, c, vh, c, 0) for c in tb.kids_of_size(w, s))
        return tuple((0, c, wh, c, wh, 0) for c in tb.kids_of_size(v, s))

    def in_degree(self, vx):
        t, v, w, vh, wh, k = vx
        tb, tree = self.tb, self.tree
        if t != 0:
            return 1
        x, y = v, w
        if tree.parent[x] is None or tree.parent[y] is None:
            return 0
        pv, pw = tree.parent[x], tree.parent[y]
        if tb.easy(pv, pw):
            return 0
        s = tree.size[x]
        if tree.size[y] != s:
            return 0
        cap = len(tb.kids_of_size(pv, s))
        deg = cap
        if cap >= 2:
            deg += 2 * cap * cap
        return deg

    def label_contains(self, vx, m):
        t, v, w, vh, wh, k = vx
        tb, tree = self.tb, self.tree
        if t == 0:
            if (vh, wh, k) != (v, w, 0) or tb.easy(v, w):
                return False
            return m == len(tree.children[v])
        if tb.easy(v, w):
            return False
        if t == 1:
            return 1 <= m <= tree.n
        s = tree.size[vh]
        cap = len(tb.kids_of_size(v, s))
        if t == 2:
            return m == (1 if cap == 1 else 3)
        return m == k


class _OrderGadget(LabelledGraph):
    """Decision graph for the canonical subtree order.

    A type-0 vertex (0,v,w,v,w,0) asserts v comes strictly before w.
    Profile comparison settles unequal profiles; for equal profiles the
    gadget finds a good child of v, matches it against a child of w and
    verifies the three counting conditions through types 2-4.
    """

    def __init__(self, tables: _TreeTables):
        super().__init__()
        self.tb = tables
        self.tree = tables.tree

    def _valid_inner(self, v, w, vh, wh, k):
        tb, tree = self.tb, self.tree
        if tb.profile[v] != tb.profile[w]:
            return False
        if tree.parent[vh] != v or tree.parent[wh] != w:
            return False
        if not tb.good(v, w, vh):
            return False
        s = tree.size[vh]
        if tree.size[wh] != s:
            return False
        return 1 <= k <= len(tb.kids_of_size(v, s))

    def out_neighbours(self, vx):
        t, v, w, vh, wh, k = vx
        tb, tree = self.tb, self.tree
        if t == 0:
            if (vh, wh, k) != (v, w, 0):
                return ()
            if tb.profile[v] != tb.profile[w]:
                return ()
            out = []
            for c in tree.children[v]:
                if not tb.good(v, w, c):
                    continue
                s = tree.size[c]
                cap = len(tb.kids_of_size(v, s))
                for d in tb.kids_of_size(w, s):
                    for kk in range(1, cap + 1):
                        out.append((1, v, w, c, d, kk))
            return tuple(sorted(out))
        if not self._valid_inner(v, w, vh, wh, k):
            return ()
        s = tree.size[vh]
        cap = len(tb.kids_of_size(v, s))
        if t == 1:
            first = (0, vh, wh, vh, wh, 0)
            if cap == 1:
                return (first,)
            return (
                first,
                (2, v, w, vh, wh, k),
                (3, v, w, vh, wh, k),
                (4, v, w, vh, wh, k),
            )
        if cap < 2:
            return ()
        if t == 2:
            return tuple((0, d, vh, d, vh, 0) for d in tb.kids_of_size(w, s))
        if t == 3:
            return tuple(
                (0, c, wh, c, wh, 0)
                for c in tb.kids_of_size(v, s)
                if not tree_isomorphic(tree, c, vh)
            )
        return tuple(
            (0, d, vh, d, vh, 0)
            for d in tb.kids_of_size(w, s)
            if tb.theta(v, d) == tb.theta(w, d)
        )

    def in_degree(self, vx):
        t, v, w, vh, wh, k = vx
        tb, tree = self.tb, self.tree
        if t != 0:
            return 1
        x, y = v, w
        if tree.parent[x] is None or tree.parent[y] is None:
            return 0
        deg = 0
        s = tree.size[x]
        if tree.size[y] == s:
            # target of a type-1 edge: (x, y) = (vhat, what)
            pv, pw = tree.parent[x], tree.parent[y]
            if tb.profile[pv] == tb.profile[pw] and tb.good(pv, pw, x):
                deg += len(tb.kids_of_size(pv, s))
            # targets of types 2 and 4: (x, y) = (wring/wprime, vhat)
            pv, pw = tree.parent[y], tree.parent[x]
            if tb.profile[pv] == tb.profile[pw] and tb.good(pv, pw, y):
                cap = len(tb.kids_of_size(pv, s))
                if cap >= 2:
                    deg += cap * cap
                    if tb.theta(pv, x) == tb.theta(pw, x):
                        deg += cap * cap
            # target of type 3: (x, y) = (vring, what)
            pv, pw = tree.parent[x], tree.parent[y]
            if tb.profile[pv] == tb.profile[pw]:
                cap = len(tb.kids_of_size(pv, s))
                if cap >= 2:
                    goods = sum(
                        1
                        for c in tb.kids_of_size(pv, s)
                        if tb.good(pv, pw, c) and not tree_isomorphic(tree, c, x)
                    )
                    deg += cap * goods
        return deg

    def label_contains(self, vx, m):
        t, v, w, vh, wh, k = vx
        tb, tree = self.tb, self.tree
        if t == 0:
            if (vh, wh, k) != (v, w, 0):
                return False
            pv, pw = tb.profile[v], tb.profile[w]
            if pv < pw:
                return m == 0
            if pv > pw:
                return False
            return 1 <= m <= tree.n
        if not self._valid_inner(v, w, vh, wh, k):
            return False
        if t == 1:
            cap = len(tb.kids_of_size(v, tree.size[vh]))
            return m == (1 if cap == 1 else 4)
        return m == k


def _gadget_resource(tree: DirectedTree) -> int:
    return (tree.n + 1) ** 5 - 1


def tree_isomorphic(tree: DirectedTree, v: int, w: int) -> bool:
    """Whether the subtrees rooted at v and w are isomorphic, decided by
    the query (0, v, w, v, w, 0) on the isomorphism gadget."""
    tb = tree.tables()
    key = (v, w)
    cached = tb.iso_cache.get(key)
    if cached is None:
        cached = v == w or x_membership(
            tb.iso_gadget(), (0, v, w, v, w, 0), _gadget_resource(tree)
        )
        tb.iso_cache[key] = cached
        tb.iso_cache[(w, v)] = cached
    return cached


def tree_order_less(tree: DirectedTree, v: int, w: int) -> bool:
    """Strict canonical order on subtrees (profile first, then the
    recursive child comparison), decided through the order gadget."""
    tb = tree.tables()
    key = (v, w)
    cached = tb.order_cache.get(key)
    if cached is None:
        cached = v != w and x_membership(
            tb.order_gadget(), (0, v, w, v, w, 0), _gadget_resource(tree)
        )
        tb.order_cache[key] = cached
    return cached


# ---------------------------------------------------------------------------
# The coloured subtree order


def _coloured_ranks(tree: DirectedTree, colours) -> list:
    """Per vertex, its rank among the vertices of equal colour and profile
    under coloured_compare.  Equal profiles mean equal subtree sizes and
    children are smaller, so ranks are assigned in increasing size order,
    without recursion on depth."""
    tb = tree.tables()
    keys = [None] * tree.n  # vertex -> (colour, profile, rank)
    by_size = {}
    for v in range(tree.n):
        by_size.setdefault(tree.size[v], []).append(v)
    for size in sorted(by_size):
        groups = {}
        for v in by_size[size]:
            kids = tuple(sorted(keys[c] for c in tree.children[v]))
            head = (colours.get(v, ()), tb.profile[v])
            groups.setdefault(head, {}).setdefault(kids, []).append(v)
        for head, by_kids in groups.items():
            for rank, kids in enumerate(sorted(by_kids)):
                for v in by_kids[kids]:
                    keys[v] = head + (rank,)
    return [key[2] for key in keys]


def coloured_compare(tree: DirectedTree, colours, a: int, b: int, _memo=None) -> int:
    """Total preorder on coloured subtrees: root colours first
    (lexicographically), then profiles, then recursively compared child
    lists.  Returns -1/0/1; 0 exactly on coloured-isomorphic subtrees.
    With empty colours this is the plain canonical subtree order.
    A `_memo` dict shared by calls on one tree and colouring keeps the
    per-vertex ranks, which are built once for the whole tree."""
    if a == b:
        return 0
    ca = colours.get(a, ())
    cb = colours.get(b, ())
    if ca != cb:
        return -1 if ca < cb else 1
    tb = tree.tables()
    pa, pb = tb.profile[a], tb.profile[b]
    if pa != pb:
        return -1 if pa < pb else 1
    if _memo is None:
        _memo = {}
    if not _memo:
        _memo.update(enumerate(_coloured_ranks(tree, colours)))
    ra, rb = _memo[a], _memo[b]
    return (ra > rb) - (ra < rb)


# ---------------------------------------------------------------------------
# Canonisation


class _CanonGraph(LabelledGraph):
    """Recursion graph computing preorder-numbered canonical copies.

    Vertices (v, a, b) assert that (a, b) is an edge of the canonical
    copy of the subtree at v.  For each class of isomorphic children the
    copies occupy consecutive blocks after all strictly smaller classes;
    a block tuple delegates to the corresponding child tuple, with one
    parallel edge per isomorphic sibling, and the label demands that all
    of them accept.  `label_any` decides in closed form whether any count
    up to `top` is in the label, so the memo engine skips the children
    of tuples that no count can accept.
    """

    def __init__(self, tables: _TreeTables):
        super().__init__()
        self.tb = tables
        self.tree = tables.tree
        self._layout = {}
        self._copies = {}  # child -> block starts of its class, set by layout(parent)

    def layout(self, v):
        """Per class of isomorphic children of v: (members, size, positions),
        positions being the range of the block starts of its copies."""
        cached = self._layout.get(v)
        if cached is None:
            tree = self.tree
            classes = []
            for c in tree.children[v]:  # ascending by construction
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
        # one edge per copy whose source tuple stays inside the number
        # sort; copies shifted past n generate no edge
        return bisect_right(self._copies[v], tree.n + 1 - max(a, b))

    def _label(self, vx):
        """The counts in the label set of vx, per class of v's children:
        0 when a == 1 numbers v itself and b starts a copy, and the number
        of copies when a and b lie in one copy's block (all must accept)."""
        v, a, b = vx
        for members, size, positions in self.layout(v):
            if a == 1 and b in positions:
                yield 0
            i = (a - positions.start) // size
            if 0 <= i == (b - positions.start) // size < len(members):
                yield len(members)

    def label_contains(self, vx, m):
        return m in self._label(vx)

    def label_any(self, vx, top):
        return any(m <= top for m in self._label(vx))


def tree_canon(tree: DirectedTree) -> tuple[tuple[int, int], ...]:
    """Canonical copy of the tree: directed edges over [1, n], the root
    numbered 1 and every subtree numbered by preorder position.  Isomorphic
    trees yield identical edge tuples."""
    n = tree.n
    if n == 1:
        return ()
    graph = tree.tables().canon_graph()
    edges = []
    # a preorder numbering puts every parent before its children
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if x_membership(graph, (tree.root, a, b), n):
                edges.append((a, b))
    if len(edges) != n - 1:
        raise LimrecError(f"canonical copy has {len(edges)} edges, not the {n - 1} of a tree")
    return tuple(sorted(edges))


# ---------------------------------------------------------------------------
# Circuit evaluation

CIRCUIT_FORMULA_TEXT = (
    "exists #r1 exists #r2 ([lrec x, y, #p : E(x, y) ; "
    "(Pand(x) and count(y ; E(x, y)) = #p) or (Por(x) and not #p = 0) "
    "or (Pnot(x) and #p = 0) or P1(x)](z, (#r1, #r2)) "
    "and forall #r (#r <= #r1 and #r <= #r2))"
)
CIRCUIT_FORMULA = parse_formula(CIRCUIT_FORMULA_TEXT)

_GATE_RELS = ("Pand", "Por", "Pnot", "P0", "P1")


def _circuit_shape(structure: Structure):
    n = structure.universe_size
    out = {v: [] for v in range(n)}
    indeg = {v: 0 for v in range(n)}
    for a, b in structure.binary_rel("E"):
        out[a].append(b)
        indeg[b] += 1
    kinds = {}
    for relname in _GATE_RELS:
        if relname not in structure.vocab:
            raise DomainError(f"circuit structure lacks relation {relname}")
        for (v,) in structure.rel(relname):
            if v in kinds:
                raise DomainError(f"gate {v} has two types")
            kinds[v] = relname
    for v in range(n):
        if v not in kinds:
            raise DomainError(f"gate {v} has no type")
        if kinds[v] in ("P0", "P1") and out[v]:
            raise DomainError(f"constant gate {v} has children")
        if kinds[v] == "Pnot" and len(out[v]) != 1:
            raise DomainError(f"negation gate {v} needs exactly one child")
    roots = [v for v in range(n) if indeg[v] == 0]
    if len(roots) != 1:
        raise DomainError(f"circuit must have exactly one output gate, found {len(roots)}")
    return out, indeg, kinds, roots[0]


def _postorder(out, starts):
    """The gates reachable from `starts`, each after all of its children;
    raises on a cycle.  Iterative, so deep circuits need no recursion."""
    done = set()
    for start in starts:
        if start in done:
            continue
        stack = [(start, iter(out[start]))]
        open_gates = {start}
        while stack:
            v, kids = stack[-1]
            for w in kids:
                if w in open_gates:
                    raise DomainError("circuit contains a cycle")
                if w not in done:
                    open_gates.add(w)
                    stack.append((w, iter(out[w])))
                    break
            else:
                stack.pop()
                open_gates.remove(v)
                done.add(v)
                yield v


def check_path_property(structure: Structure):
    """Verify the in-degree product along every path is at most |C|.
    Returns the worst product; raises with a witness path otherwise."""
    out, indeg, _, root = _circuit_shape(structure)
    n = structure.universe_size
    best = {}  # gate -> (worst product below it, next gate on that path)
    for v in _postorder(out, range(n)):
        prod, nxt = 1, None
        for w in out[v]:
            cand = indeg[w] * best[w][0]
            if cand > prod:
                prod, nxt = cand, w
        best[v] = (prod, nxt)

    worst, start = 1, None
    for v in range(n):
        if best[v][0] > worst:
            worst, start = best[v][0], v
    if worst > n:
        path = []
        while start is not None:
            path.append(start)
            start = best[start][1]
        raise RecognitionError(
            f"path property violated: product {worst} exceeds {n}",
            certificate=tuple(path),
        )
    return worst


def circuit_value(structure: Structure, engine: str = "memo") -> bool:
    """Evaluate the circuit's output gate through the recursion formula;
    rejects inputs without the size-bounded path property."""
    _, _, _, root = _circuit_shape(structure)
    check_path_property(structure)
    return evaluate(structure, {svar("z"): root}, CIRCUIT_FORMULA, engine=engine)

