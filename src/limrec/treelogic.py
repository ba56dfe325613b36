"""Directed-tree machinery: subtree isomorphism and a canonical subtree
order decided through native recursion graphs, plus tree canonisation and
Boolean circuit evaluation.

The recursion graphs ("gadgets") live over the tuple space
N(T) x V(T)^4 x N(T) and are queried through the generic engines; they
are built directly as labelled graphs with analytic out-neighbour,
in-degree and label functions, never materialized.  Every label set is
one count or an interval, which each gadget gives as exact bounds, so
the memo engine stops a vertex's children once its count is settled.
Trees of every size go through the gadgets: a vertex's type is a plain
int that the engines never check against the number sort, so the
paper's n >= 4 (type 4 must be a number of N(T)) does not apply.

A `DirectedTree` holds everything derived from it: the subtree sizes,
the children by size, the profiles, and one of each gadget, built on
first use.  A gadget keeps the tree's tables, not the tree, so a tree and
its gadgets are in no reference cycle, and a gadget stays usable while
anyone holds it.  The order gadget holds the isomorphism gadget and the
child counts `theta`/`good`.  A gadget's memo is the only cache of its
verdicts.  The canonisation graph lays out the copy blocks of every
vertex when it is built, in tables linear in the tree, so each of its
callbacks is a lookup.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .errors import DomainError, LimrecError, ParseError, RecognitionError
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
        # (v, s) -> the children of v of subtree size s, ascending
        self.kids_by_size = {}
        for c, p in enumerate(parents):
            if p is not None:
                self.kids_by_size.setdefault((p, self.size[c]), []).append(c)
        # profile[v] = (size(v), (-s, count), ...) over the child sizes s of
        # v, ascending; it orders like the dense (size(v), count of size 1,
        # ..., count of size size(v) - 1) at a length linear in the degree
        counts = [[] for _ in range(n)]
        for (v, s), kids in sorted(self.kids_by_size.items()):
            counts[v].append((-s, len(kids)))
        self.profile = [(self.size[v],) + tuple(counts[v]) for v in range(n)]
        self._iso_gadget = None
        self._order_gadget = None
        self._canon_graph = None

    @classmethod
    def from_structure(cls, structure: Structure) -> "DirectedTree":
        n = structure.universe_size
        parents = [None] * n
        for a, b in structure.binary_rel("E"):
            if parents[b] is not None:
                raise RecognitionError(f"vertex {structure.element_name(b)} has two parents")
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
        vals = []
        for i, t in enumerate(toks, 1):
            try:
                vals.append(int(t))
            except ValueError:
                raise ParseError(f"parent entry {i} is {t!r}, not an integer") from None
        try:
            return cls([None if p < 0 else p for p in vals])
        except DomainError as exc:
            raise RecognitionError(f"not a directed tree: {exc}") from None

    def iso_gadget(self):
        if self._iso_gadget is None:
            self._iso_gadget = _IsoGadget(self)
        return self._iso_gadget

    def order_gadget(self):
        if self._order_gadget is None:
            self._order_gadget = _OrderGadget(self, self.iso_gadget())
        return self._order_gadget

    def canon_graph(self):
        if self._canon_graph is None:
            self._canon_graph = _CanonGraph(self)
        return self._canon_graph


class _TreeGadget(LabelledGraph):
    """A recursion graph over a tree's tuple space.  It reads the tree's
    tables and holds no reference to the tree.  Every label set is one
    count or an interval, so its bounds are exact."""

    label_bounds_exact = True

    def __init__(self, tree: DirectedTree):
        super().__init__()
        self.n, self.parent, self.children, self.size = tree.n, tree.parent, tree.children, tree.size
        self.kids_by_size, self.profile = tree.kids_by_size, tree.profile
        self.resource = _gadget_resource(tree)

    def kids_of_size(self, v, s):
        return self.kids_by_size.get((v, s), ())

    def easy(self, v, w) -> bool:
        """The pair fails the size/child-count screening of the recursive
        isomorphism procedure."""
        return self.profile[v] != self.profile[w]


class _IsoGadget(_TreeGadget):
    """Decision graph for subtree isomorphism queries.

    Vertex roles, encoded (type, v, w, vhat, what, k):
      type 0  (0,v,w,v,w,0)      "is T_v iso to T_w?"
      type 1  (1,v,w,vh,w,0)     "does child vh of v have a partner?"
      type 2  (2,v,w,vh,wh,k)    "is wh a partner of vh with multiplicity k?"
      type 3  (3,v,w,vh,wh,k)    counts partners of vh among w's children
      type 4  (4,v,w,vh,wh,k)    counts partners of wh among v's children
    """

    def isomorphic(self, v, w) -> bool:
        """The query (0, a, b, a, b, 0) with a <= b, so that both orders
        of a pair share one memo entry."""
        a, b = min(v, w), max(v, w)
        return v == w or x_membership(self, (0, a, b, a, b, 0), self.resource)

    def out_neighbours(self, vx):
        t, v, w, vh, wh, k = vx
        if t == 0:
            if (vh, wh, k) != (v, w, 0) or self.easy(v, w):
                return ()
            return tuple((1, v, w, c, w, 0) for c in self.children[v])
        if self.easy(v, w):
            return ()
        if t == 1:
            if wh != w or k != 0 or self.parent[vh] != v:
                return ()
            s = self.size[vh]
            cap = len(self.kids_of_size(v, s))
            return tuple(
                (2, v, w, vh, c, kk)
                for c in self.kids_of_size(w, s)
                for kk in range(1, cap + 1)
            )
        # shared validity for types 2-4
        if self.parent[vh] != v or self.parent[wh] != w:
            return ()
        s = self.size[vh]
        if self.size[wh] != s:
            return ()
        cap = len(self.kids_of_size(v, s))
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
            return tuple((0, vh, c, vh, c, 0) for c in self.kids_of_size(w, s))
        return tuple((0, c, wh, c, wh, 0) for c in self.kids_of_size(v, s))

    def in_degree(self, vx):
        t, v, w, vh, wh, k = vx
        if t != 0:
            return 1
        x, y = v, w
        if self.parent[x] is None or self.parent[y] is None:
            return 0
        pv, pw = self.parent[x], self.parent[y]
        if self.easy(pv, pw):
            return 0
        s = self.size[x]
        if self.size[y] != s:
            return 0
        cap = len(self.kids_of_size(pv, s))
        deg = cap
        if cap >= 2:
            deg += 2 * cap * cap
        return deg

    def label_bounds(self, vx):
        """{#children} at type 0, [1, n] at type 1, {1} or {3} at type 2
        and {k} at types 3 and 4; empty for an easy pair."""
        t, v, w, vh, wh, k = vx
        if t == 0:
            if (vh, wh, k) != (v, w, 0) or self.easy(v, w):
                return None
            m = len(self.children[v])
            return m, m
        if self.easy(v, w):
            return None
        if t == 1:
            return 1, self.n
        if t == 2:
            m = 1 if len(self.kids_of_size(v, self.size[vh])) == 1 else 3
            return m, m
        return k, k

    def label_contains(self, vx, m):
        return _within(self.label_bounds(vx), m)


class _OrderGadget(_TreeGadget):
    """Decision graph for the canonical subtree order.

    A type-0 vertex (0,v,w,v,w,0) asserts v comes strictly before w.
    Profile comparison settles unequal profiles; for equal profiles the
    gadget finds a good child of v, matches it against a child of w and
    verifies the three counting conditions through types 2-4.
    """

    def __init__(self, tree: DirectedTree, iso: _IsoGadget):
        super().__init__(tree)
        self.iso = iso
        self._theta = {}
        self._good = {}

    def theta(self, u, t) -> int:
        """Number of children of u whose subtree is isomorphic to T_t."""
        key = (u, t)
        cached = self._theta.get(key)
        if cached is None:
            cached = sum(
                1
                for c in self.kids_of_size(u, self.size[t])
                if self.iso.isomorphic(c, t)
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
                for c in self.children[v]
                if self.size[c] < self.size[vh]
            )
            self._good[key] = cached
        return cached

    def _valid_inner(self, v, w, vh, wh, k):
        if self.profile[v] != self.profile[w]:
            return False
        if self.parent[vh] != v or self.parent[wh] != w:
            return False
        if not self.good(v, w, vh):
            return False
        s = self.size[vh]
        if self.size[wh] != s:
            return False
        return 1 <= k <= len(self.kids_of_size(v, s))

    def out_neighbours(self, vx):
        t, v, w, vh, wh, k = vx
        if t == 0:
            if (vh, wh, k) != (v, w, 0):
                return ()
            if self.profile[v] != self.profile[w]:
                return ()
            out = []
            for c in self.children[v]:
                if not self.good(v, w, c):
                    continue
                s = self.size[c]
                cap = len(self.kids_of_size(v, s))
                for d in self.kids_of_size(w, s):
                    for kk in range(1, cap + 1):
                        out.append((1, v, w, c, d, kk))
            return tuple(sorted(out))
        if not self._valid_inner(v, w, vh, wh, k):
            return ()
        s = self.size[vh]
        cap = len(self.kids_of_size(v, s))
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
            return tuple((0, d, vh, d, vh, 0) for d in self.kids_of_size(w, s))
        if t == 3:
            return tuple(
                (0, c, wh, c, wh, 0)
                for c in self.kids_of_size(v, s)
                if not self.iso.isomorphic(c, vh)
            )
        return tuple(
            (0, d, vh, d, vh, 0)
            for d in self.kids_of_size(w, s)
            if self.theta(v, d) == self.theta(w, d)
        )

    def in_degree(self, vx):
        t, v, w, vh, wh, k = vx
        if t != 0:
            return 1
        x, y = v, w
        if self.parent[x] is None or self.parent[y] is None:
            return 0
        deg = 0
        s = self.size[x]
        if self.size[y] == s:
            # target of a type-1 edge: (x, y) = (vhat, what)
            pv, pw = self.parent[x], self.parent[y]
            if self.profile[pv] == self.profile[pw] and self.good(pv, pw, x):
                deg += len(self.kids_of_size(pv, s))
            # targets of types 2 and 4: (x, y) = (wring/wprime, vhat)
            pv, pw = self.parent[y], self.parent[x]
            if self.profile[pv] == self.profile[pw] and self.good(pv, pw, y):
                cap = len(self.kids_of_size(pv, s))
                if cap >= 2:
                    deg += cap * cap
                    if self.theta(pv, x) == self.theta(pw, x):
                        deg += cap * cap
            # target of type 3: (x, y) = (vring, what)
            pv, pw = self.parent[x], self.parent[y]
            if self.profile[pv] == self.profile[pw]:
                cap = len(self.kids_of_size(pv, s))
                if cap >= 2:
                    goods = sum(
                        1
                        for c in self.kids_of_size(pv, s)
                        if self.good(pv, pw, c) and not self.iso.isomorphic(c, x)
                    )
                    deg += cap * goods
        return deg

    def label_bounds(self, vx):
        """At type 0 {0} when the profile of v is smaller, [1, n] when the
        profiles are equal, else empty; {1} or {4} at type 1 and {k} at
        types 2-4 of a valid inner vertex."""
        t, v, w, vh, wh, k = vx
        if t == 0:
            if (vh, wh, k) != (v, w, 0):
                return None
            pv, pw = self.profile[v], self.profile[w]
            if pv < pw:
                return 0, 0
            return (1, self.n) if pv == pw else None
        if not self._valid_inner(v, w, vh, wh, k):
            return None
        if t == 1:
            m = 1 if len(self.kids_of_size(v, self.size[vh])) == 1 else 4
            return m, m
        return k, k

    def label_contains(self, vx, m):
        return _within(self.label_bounds(vx), m)


def _within(bounds, m) -> bool:
    """Whether count m lies in the exact bounds of a label set."""
    return bounds is not None and bounds[0] <= m <= bounds[1]


def _gadget_resource(tree: DirectedTree) -> int:
    return (tree.n + 1) ** 5 - 1


def tree_isomorphic(tree: DirectedTree, v: int, w: int) -> bool:
    """Whether the subtrees rooted at v and w are isomorphic, decided on
    the isomorphism gadget."""
    return tree.iso_gadget().isomorphic(v, w)


def tree_order_less(tree: DirectedTree, v: int, w: int) -> bool:
    """Strict canonical order on subtrees (profile first, then the
    recursive child comparison), decided through the order gadget."""
    if v == w:
        return False
    gadget = tree.order_gadget()
    return x_membership(gadget, (0, v, w, v, w, 0), gadget.resource)


# ---------------------------------------------------------------------------
# The coloured subtree order


def coloured_keys(tree: DirectedTree, colours) -> list:
    """One sort key per vertex, (colour, profile, rank): coloured subtrees
    order by root colour (lexicographically), then profile, then the
    sorted keys of their children.  Equal keys mean coloured-isomorphic
    subtrees; with empty colours this is the plain canonical subtree
    order.  Equal profiles mean equal subtree sizes and children are
    smaller, so keys are assigned in increasing size order, without
    recursion on depth."""
    keys = [None] * tree.n
    by_size = {}
    for v in range(tree.n):
        by_size.setdefault(tree.size[v], []).append(v)
    for size in sorted(by_size):
        groups = {}
        for v in by_size[size]:
            kids = tuple(sorted(keys[c] for c in tree.children[v]))
            head = (colours.get(v, ()), tree.profile[v])
            groups.setdefault(head, {}).setdefault(kids, []).append(v)
        for head, by_kids in groups.items():
            for rank, kids in enumerate(sorted(by_kids)):
                for v in by_kids[kids]:
                    keys[v] = head + (rank,)
    return keys


# ---------------------------------------------------------------------------
# Canonisation


class _CanonGraph(LabelledGraph):
    """Recursion graph computing preorder-numbered canonical copies.

    Vertices (v, a, b) assert that (a, b) is an edge of the canonical
    copy of the subtree at v.  For each class of isomorphic children the
    copies occupy consecutive blocks after all strictly smaller classes;
    a block tuple delegates to the corresponding child tuple, with one
    parallel edge per isomorphic sibling, and the label demands that all
    of them accept.  The blocks of every vertex are laid out once, when
    the graph is built, so each callback is a lookup: a label set holds
    one count or none, found by one bisect on the block starts, and the
    out-neighbours of a child are two bisects on its shifts.
    """

    label_bounds_exact = True

    def __init__(self, tree: DirectedTree):
        super().__init__()
        self.n = n = tree.n
        # v -> (block starts ascending, (block end, copies) per block)
        self._blocks = [None] * n
        # v -> ((child, (1 - start per copy of its class, ascending)), ...)
        # ascending by child; a child tuple (child, a + q, b + q) per q
        self._fan = [None] * n
        # child -> block starts of its class; the root has none
        self._starts = [()] * n
        for v in range(n):
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
            blocks, fan = [], []
            for members in classes:
                rep = members[0]
                below = (c for c in tree.children[v] if tree_order_less(tree, c, rep))
                base = 2 + sum(tree.size[c] for c in below)
                size = tree.size[rep]
                starts = range(base, base + len(members) * size, size)
                blocks += ((p, p + size, len(members)) for p in starts)
                shifts = tuple(1 - p for p in reversed(starts))
                for c in members:
                    self._starts[c] = starts
                    fan.append((c, shifts))
            blocks.sort()
            self._blocks[v] = ([p for p, _, _ in blocks], [(e, k) for _, e, k in blocks])
            self._fan[v] = tuple(sorted(fan))

    def out_neighbours(self, vx):
        v, a, b = vx
        lo, hi = -min(a, b), self.n - max(a, b)
        return tuple(
            (c, a + q, b + q)
            for c, shifts in self._fan[v]
            for q in shifts[bisect_left(shifts, lo):bisect_right(shifts, hi)]
        )

    def in_degree(self, vx):
        v, a, b = vx
        # one edge per copy whose source tuple stays inside the number
        # sort; copies shifted past n generate no edge
        return bisect_right(self._starts[v], self.n + 1 - max(a, b))

    def label_bounds(self, vx):
        """The one count m of the label set as (m, m), or None when the
        set is empty: 0 when a == 1 numbers v itself and b starts a copy,
        and the number of copies when a and b lie in one copy's block (all
        must accept)."""
        v, a, b = vx
        starts, blocks = self._blocks[v]
        i = bisect_right(starts, b if a == 1 else a) - 1
        if i < 0:
            return None
        if a == 1:
            return (0, 0) if starts[i] == b else None
        end, copies = blocks[i]
        return (copies, copies) if starts[i] <= b < end and a < end else None

    def label_contains(self, vx, m):
        return _within(self.label_bounds(vx), m)


def tree_canon(tree: DirectedTree) -> tuple[tuple[int, int], ...]:
    """Canonical copy of the tree: directed edges over [1, n], the root
    numbered 1 and every subtree numbered by preorder position.  Isomorphic
    trees yield identical edge tuples.

    In a preorder numbering every b > 1 has exactly one parent a < b, and
    it lies on the rightmost path of the copy of 1..b - 1: b - 1 or one of
    its ancestors.  So for each b the edge queries (root, a, b) are asked
    for a = b - 1, parent[a], ... up that path and stop at the first
    accepted one.  Each rejected a leaves the rightmost path for good, so
    the copy takes at most 2n - 3 queries.  An early stop cannot see a
    second, spurious edge into b, so the copy is checked instead: every
    b > 1 has a parent, the copy is numbered in preorder, and it is
    isomorphic to the input."""
    n = tree.n
    if n == 1:
        return ()
    graph = tree.canon_graph()
    parent = [None, None]  # parent[b] in the copy, for b in [1, n]
    for b in range(2, n + 1):
        a = b - 1
        while not x_membership(graph, (tree.root, a, b), n):
            a = parent[a]
            if a is None:
                raise LimrecError(f"canonical copy gives vertex {b} no parent")
        parent.append(a)
    _check_canonical_copy(tree, parent)
    return tuple(sorted((parent[b], b) for b in range(2, n + 1)))


def _check_canonical_copy(tree: DirectedTree, parent) -> None:
    """Raise unless the copy given by parent[b] (b in [2, n], each < b) is
    numbered in preorder, its ascending-children walk visiting 1..n in
    order, and is isomorphic to the input: both roots, hung under one new
    root, get equal `coloured_keys`."""
    n = tree.n
    kids = [[] for _ in range(n + 1)]
    for b in range(2, n + 1):
        kids[parent[b]].append(b)
    order, stack = [], [1]
    while stack:
        a = stack.pop()
        order.append(a)
        stack.extend(reversed(kids[a]))
    if order != list(range(1, n + 1)):
        raise LimrecError("canonical copy is not numbered in preorder")
    # vertex 0 is the new root, input vertex v is 1 + v, copy vertex b is n + b
    joint = DirectedTree(
        [None]
        + [0 if p is None else 1 + p for p in tree.parent]
        + [0]
        + [n + parent[b] for b in range(2, n + 1)]
    )
    keys = coloured_keys(joint, {})
    if keys[1 + tree.root] != keys[n + 1]:
        raise LimrecError("canonical copy is not isomorphic to the input tree")


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
        arity = structure.vocab.arity(relname)
        if arity != 1:
            raise DomainError(f"gate relation {relname} must be unary, not {relname}/{arity}")
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
    return _checked_circuit(structure)[0]


def _checked_circuit(structure: Structure):
    """(worst path product, output gate) from one shape of the circuit;
    raises as check_path_property does."""
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
    return worst, root


def circuit_value(structure: Structure, engine: str = "memo") -> bool:
    """Evaluate the circuit's output gate through the recursion formula;
    rejects inputs without the size-bounded path property."""
    return _circuit_report(structure, engine)[1]


def _circuit_report(structure: Structure, engine: str = "memo"):
    """(worst path product, value of the output gate), checking the path
    property once on one shape of the circuit."""
    worst, root = _checked_circuit(structure)
    return worst, evaluate(structure, {svar("z"): root}, CIRCUIT_FORMULA, engine=engine)

