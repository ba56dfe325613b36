"""Semantics: counting first-order logic plus the limited-recursion
operators, with two interchangeable recursion engines.

The memoized engine decides membership in the recursion relation X by
top-down recursion with exact (vertex, resource) caching; resources are
unbounded ints and strictly decrease along edges, so the recursion is on
a DAG and is run with an explicit stack.

The streaming engine follows the two-machine evaluation strategy: it
decides acceptance by a depth-first walk of the unravelling tree W of the
recursion graph at the queried (vertex, resource) pair, visiting children
in decreasing subtree-size order while keeping per-level counters, and
checks the logarithmic counter budget (sum of 2*l_v(i) at most
6*log2 |W|) at every step.  It does not store W: it stores a table with
one entry per (vertex, resource) pair reached, holding the subtree size
and the ordered child pairs, plus the path of counters.  The table is
polynomial in the pairs reached, not logarithmic space.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .errors import DomainError, FormulaError, LimrecError
from .structures import Structure, Vocabulary, num_decode, num_encode, quotient_by_equivalence
from .syntax import (
    NUMBER, And, Atom, Count, EqVar, Exists, Forall, Formula, LeqNum, Lrec,
    LrecEq, Not, Or, STRUCT, Var, _children, _contains_dtc, _outer_variables, _rebuild,
    compatible, expand_dtc, free_variables,
)

EDGE_MATERIALIZE_THRESHOLD = 10 ** 6


class EvalContext:
    """Per-evaluation caches: compiled formula closures, the relation
    indexes of `_guard`, and the recursion graphs of lrec and lreceq nodes
    (`formula_graph`), keyed by node, engine and the assignment restricted
    to the node's outer free variables.  Never share across structures."""

    def __init__(self, structure: Structure):
        self.structure = structure
        self.edge_threshold = EDGE_MATERIALIZE_THRESHOLD
        self._graphs: dict = {}
        self._compiled: dict = {}
        self._index: dict = {}

    def formula_graph(self, node: Lrec | LrecEq, alpha, engine: str = "memo") -> FormulaGraph:
        """The recursion graph of `node` under `alpha`, built once per
        engine and value of the node's outer variables.  Its formulas run
        their own recursions on `engine`, the engine of the query that
        builds the graph."""
        entry = self._graphs.get((id(node), engine))
        if entry is None:
            # holding the node keeps its id from being reused
            entry = self._graphs[id(node), engine] = (node, _outer_variables(node), {})
        _, outer, graphs = entry
        values = tuple(alpha[v] for v in outer)
        graph = graphs.get(values)
        if graph is None:
            graph = graphs[values] = FormulaGraph(self, node, dict(zip(outer, values)), engine)
        return graph


def _domain(structure: Structure, var: Var) -> range:
    if var.sort == STRUCT:
        return range(structure.universe_size)
    return range(structure.universe_size + 1)


def _check_bound(structure, alpha, f):
    free = sorted(free_variables(f), key=lambda v: (v.name, v.sort))
    unbound = [var for var in free if var not in alpha]
    if unbound:
        names = ", ".join(map(repr, unbound))
        raise DomainError(f"unbound free variable{'s' if len(unbound) > 1 else ''} {names}")
    for var in free:
        val = alpha[var]
        if val not in _domain(structure, var):
            raise DomainError(f"value {val} for {var!r} outside its domain")


def evaluate(structure: Structure, assignment, formula: Formula, engine: str = "memo",
             ctx: EvalContext | None = None) -> bool:
    """Decide truth of a formula under an assignment.

    `engine` selects how lrec recursions are run: "memo", "stream", or
    "both" (runs both and insists they agree).  Passing a reusable `ctx`
    lets sweeps share recursion graphs between calls.  Formulas nested
    beyond Python's recursion limit raise FormulaError.
    """
    if engine not in ("memo", "stream", "both"):
        raise LimrecError(f"unknown engine {engine!r}")
    try:
        alpha = dict(assignment)
        _check_bound(structure, alpha, formula)
        if ctx is None:
            ctx = EvalContext(structure)
        elif ctx.structure is not structure and ctx.structure != structure:
            raise LimrecError("context was built for a different structure")
        return _compile(ctx, formula, engine)(alpha)
    except RecursionError:
        raise FormulaError("formula nested too deeply") from None


class _Missing:
    pass


_MISSING = _Missing()


def _compile(ctx: EvalContext, f: Formula, engine: str):
    """Build (once per context) a closure deciding f over a mutating
    assignment dict.  Quantifier closures save and restore the binding
    they touch, so sharing one dict across calls is safe.  The closure
    evaluates the planned formula `_plan(f)`, not f in source order, with
    every dtc node expanded into its lrec formula."""
    key = (f, engine)
    fn = ctx._compiled.get(key)
    if fn is None:
        fn = _build(ctx, _plan(expand_dtc(f) if _contains_dtc(f) else f), engine)
        ctx._compiled[key] = fn
    return fn


# ---------------------------------------------------------------------------
# Static query planning.  Formulas are pure and every domain is non-empty
# (a structure has at least one element, a number domain contains 0), so
# reordering the operands of and/or and moving a quantifier past parts of
# its body that do not mention its variable keep the truth value under
# every assignment.


# and/or operands run in ascending tier: quantifier-free, then
# quantifiers, then count, then the recursion operators
_TIER = {Exists: 1, Forall: 1, Count: 2, Lrec: 3, LrecEq: 3}


def _cost(f: Formula, costs: dict) -> int:
    """Static cost tier of f: the highest tier of any node in it.  `costs`
    maps id(node) -> (node, tier) for one `_plan`, so every node's tier
    is computed once, from those of its subformulas; holding the node
    keeps its id from being reused."""
    entry = costs.get(id(f))
    if entry is None:
        tiers = [_cost(g, costs) for g, _ in _children(f)]
        entry = costs[id(f)] = (f, max([_TIER.get(type(f), 0)] + tiers))
    return entry[1]


def _parts(f: Formula, kind) -> tuple:
    """The operands of f read as a `kind` (And or Or) node: its parts if
    it is one, else f alone.  Planned formulas are flat (no part of an
    and is an and, and so for or), so one level is all there is."""
    return f.parts if type(f) is kind else (f,)


def _join(kind, parts, costs) -> Formula:
    """One `kind` node over the planned parts, each read through `_parts`,
    cheapest first; ties keep their order.  A lone part is itself."""
    parts = [p for part in parts for p in _parts(part, kind)]
    if len(parts) == 1:
        return parts[0]
    return kind(tuple(sorted(parts, key=lambda part: _cost(part, costs))))


def _miniscope(f: Exists | Forall, costs) -> Formula:
    """Push the quantifier f inwards over its (planned) body: forall
    distributes over and, exists over or, and the parts of the body that
    do not mention the variable move outside it."""
    spread, keep = (And, Or) if isinstance(f, Forall) else (Or, And)
    parts = _parts(f.sub, spread)
    out = []
    for part in parts:
        pieces = _parts(part, keep)
        kept, bound = [], []
        for piece in pieces:
            if f.var not in free_variables(piece):
                kept.append(piece)
                continue
            if not bound:
                kept.append(None)  # the quantifier's place: that of its first piece
            bound.append(piece)
        if bound:
            if len(parts) == 1 and len(bound) == len(pieces):
                quant = f  # nothing moves: f's planned body is already this node
            else:
                quant = _miniscope(type(f)(f.var, _join(keep, bound, costs)), costs)
            kept[kept.index(None)] = quant
        out.append(_join(keep, kept, costs))
    return _join(spread, out, costs)


def _plan(f: Formula) -> Formula:
    """The formula the evaluator compiles for f: bottom up, quantifiers
    miniscoped and and/or operands in cost order."""
    costs: dict = {}

    def plan(g, _binders=()):
        g = _rebuild(g, plan)
        if isinstance(g, (And, Or)):
            return _join(type(g), g.parts, costs)
        if isinstance(g, (Exists, Forall)):
            return _miniscope(g, costs)
        return g

    return plan(f)


# ---------------------------------------------------------------------------
# Guarded enumeration.  A quantifier, count or recursion-graph edge whose
# planned body is an and with an atom over all of its variables
# needs only the values that make the atom true: it loops over the atom's
# tuples, not over the domain (the guarded fragment's evaluation
# strategy).  Candidates never omit a satisfying value, and the body is
# still tested on each one, so no truth value changes.


def _extremum(f: Formula, n: int):
    """(t, value) when f is `forall #r #r <= #t` (value n) or
    `forall #r #t <= #r` (value 0) with #r, #t distinct number variables:
    f holds exactly when #t = value.  None otherwise."""
    if not (isinstance(f, Forall) and isinstance(f.sub, LeqNum) and f.var.sort == NUMBER):
        return None
    left, right = f.sub.left, f.sub.right
    if left == f.var and right != f.var and right.sort == NUMBER:
        return right, n
    if right == f.var and left != f.var and left.sort == NUMBER:
        return left, 0
    return None


def _guard(ctx: EvalContext, parts, xs, negated: bool = False):
    """A function alpha -> the candidate tuples of values for the distinct
    variables xs, or None when no part of the planned and `parts`
    guards xs.  A guard is the first atom whose arguments include every
    x in xs, or a number extremum `forall #r #r <= #t` (xs = (#t,)).
    Failing both, the parts that are guarded universals `forall z (not A
    or B)` (`_universal`) guard xs together.  With `negated` the parts
    are those of an or and a guard stands under a not; a guarded
    universal is then no guard.  The candidates include every tuple
    under which the guard holds."""
    if len(set(xs)) < len(xs):
        return None
    for part in parts:
        if negated:
            if not isinstance(part, Not):
                continue
            part = part.sub
        if isinstance(part, Atom) and set(xs) <= set(part.args):
            return _atom_guard(ctx, part, xs)
        pinned = _extremum(part, ctx.structure.universe_size)
        if pinned is not None and (pinned[0],) == tuple(xs):
            only = ((pinned[1],),)
            return lambda alpha: only
    if negated:
        return None
    universals = [form for form in (_universal(part, xs) for part in parts) if form is not None]
    return _universal_guard(ctx, universals, xs) if universals else None


def _universal(part: Formula, xs):
    """(z, A, B) when part is `forall z (not A or B)`, in either order of
    the or, with A an atom that contains z and no variable of xs and B
    an atom whose arguments include every x in xs.  None otherwise."""
    if not (isinstance(part, Forall) and type(part.sub) is Or and len(part.sub.parts) == 2):
        return None
    z = part.var
    first, second = part.sub.parts
    for neg, pos in ((first, second), (second, first)):
        if isinstance(neg, Not) and isinstance(neg.sub, Atom) and isinstance(pos, Atom):
            a = neg.sub
            if z in a.args and not set(xs) & set(a.args) and set(xs) <= set(pos.args):
                return z, a, pos
    return None


def _universal_guard(ctx: EvalContext, universals, xs):
    """Candidates from the guarded universals (z, A, B): for the first
    whose A has a witness z0 (the least tuple of A's index), the tuples of
    B's index with z = z0, else every tuple of the domains of xs.  If
    `forall z (not A or B)` holds at xs then so does B(xs, z0), since A
    does not read xs."""
    guards = [(z, _atom_guard(ctx, a, (z,)), _atom_guard(ctx, b, xs)) for z, a, b in universals]
    doms = [_domain(ctx.structure, x) for x in xs]

    def cands(alpha):
        for z, witnesses, rows in guards:
            found = witnesses(alpha)
            if found:
                saved = alpha.get(z, _MISSING)
                alpha[z] = found[0][0]
                try:
                    return rows(alpha)
                finally:
                    if saved is _MISSING:
                        alpha.pop(z, None)
                    else:
                        alpha[z] = saved
        return itertools.product(*doms)

    return cands


def _atom_guard(ctx: EvalContext, atom: Atom, xs):
    """Candidates from the atom's relation index: its tuples whose repeated
    variables agree, keyed by the values at the positions of the other
    variables and projected onto xs, in ascending order."""
    args = atom.args
    bound = tuple(i for i, a in enumerate(args) if a not in xs)
    key = (atom.rel, tuple(xs.index(a) if a in xs else -1 for a in args))
    index = ctx._index.get(key)
    if index is None:
        tuples = ctx.structure.relations[atom.rel]
        # (later, first) positions of each variable of xs that repeats
        repeats = [(i, args.index(a)) for i, a in enumerate(args) if a in xs and args.index(a) < i]
        if repeats:
            tuples = [t for t in tuples if all(t[i] == t[j] for i, j in repeats)]
        key_of, row_of = _projection(bound), _projection([args.index(x) for x in xs])
        rows: dict = {}
        for t in tuples:
            rows.setdefault(key_of(t), []).append(row_of(t))
        index = ctx._index[key] = {k: tuple(sorted(v)) for k, v in rows.items()}
    if len(bound) == 1:
        b0 = args[bound[0]]
        return lambda alpha: index.get((alpha[b0],), ())
    at = [args[i] for i in bound]
    return lambda alpha: index.get(tuple(alpha[a] for a in at), ())


def _projection(positions):
    """A function t -> the tuple of t's values at `positions`."""
    if len(positions) == 1:
        (p,) = positions
        return lambda t: (t[p],)
    if not positions:
        return lambda t: ()
    return operator.itemgetter(*positions)


def _candidates(ctx: EvalContext, parts, xs, negated: bool = False):
    """The guard of xs among parts, or else every tuple of their domains."""
    guard = _guard(ctx, parts, xs, negated)
    if guard is not None:
        return guard
    doms = [_domain(ctx.structure, x) for x in xs]
    return lambda alpha: itertools.product(*doms)


def _build(ctx: EvalContext, f: Formula, engine: str):
    A = ctx.structure
    if isinstance(f, Atom):
        if f.rel not in A.vocab:
            raise FormulaError(f"structure has no relation {f.rel!r}")
        arity = A.vocab.arity(f.rel)
        if len(f.args) != arity:
            raise FormulaError(
                f"relation {f.rel} has arity {arity}, but the atom gives it {len(f.args)} arguments"
            )
        rel = A.relations[f.rel]
        if len(f.args) == 1:
            (a0,) = f.args
            return lambda alpha: (alpha[a0],) in rel
        if len(f.args) == 2:
            a0, a1 = f.args
            return lambda alpha: (alpha[a0], alpha[a1]) in rel
        args = f.args
        return lambda alpha: tuple(alpha[a] for a in args) in rel
    if isinstance(f, EqVar):
        left, right = f.left, f.right
        return lambda alpha: alpha[left] == alpha[right]
    if isinstance(f, LeqNum):
        left, right = f.left, f.right
        return lambda alpha: alpha[left] <= alpha[right]
    if isinstance(f, Not):
        sub = _build(ctx, f.sub, engine)
        return lambda alpha: not sub(alpha)
    if isinstance(f, And):
        subs = tuple(_build(ctx, part, engine) for part in f.parts)

        def conj(alpha):
            for sub in subs:
                if not sub(alpha):
                    return False
            return True

        return conj
    if isinstance(f, Or):
        subs = tuple(_build(ctx, part, engine) for part in f.parts)

        def disj(alpha):
            for sub in subs:
                if sub(alpha):
                    return True
            return False

        return disj
    if isinstance(f, (Exists, Forall)):
        pinned = _extremum(f, A.universe_size)
        if pinned is not None:
            t, value = pinned
            return lambda alpha: alpha[t] == value
        want = isinstance(f, Exists)
        var = f.var
        sub = _build(ctx, f.sub, engine)
        cands = _candidates(ctx, _parts(f.sub, And if want else Or), (var,), not want)

        def quant(alpha, var=var, cands=cands, sub=sub, want=want):
            saved = alpha.get(var, _MISSING)
            try:
                for (val,) in cands(alpha):
                    alpha[var] = val
                    if sub(alpha) == want:
                        return want
                return not want
            finally:
                if saved is _MISSING:
                    alpha.pop(var, None)
                else:
                    alpha[var] = saved

        return quant
    if isinstance(f, Count):
        n = A.universe_size
        uvars = f.uvars
        pvars = f.pvars
        sub = _build(ctx, f.sub, engine)
        cands = _candidates(ctx, _parts(f.sub, And), uvars)

        def count_fn(alpha):
            target = num_encode([alpha[p] for p in pvars], n)
            count = 0
            saved = [(v, alpha.get(v, _MISSING)) for v in uvars]
            try:
                for vals in cands(alpha):
                    for var, val in zip(uvars, vals):
                        alpha[var] = val
                    if sub(alpha):
                        count += 1
                        if count > target:
                            return False
                return count == target
            finally:
                for var, old in saved:
                    if old is _MISSING:
                        alpha.pop(var, None)
                    else:
                        alpha[var] = old

        return count_fn
    if isinstance(f, (Lrec, LrecEq)):
        node = f
        n = A.universe_size

        def lrec_fn(alpha):
            graph = ctx.formula_graph(node, alpha, engine)
            vertex = graph.class_of(tuple(alpha[x] for x in node.w))
            ell = num_encode([alpha[x] for x in node.r], n)
            return _run_engines(graph, vertex, ell, engine)

        return lrec_fn
    raise FormulaError(f"unknown formula node {type(f).__name__}")


def _run_engines(graph, vertex, ell, engine):
    if engine == "memo":
        return x_membership(graph, vertex, ell)
    if engine == "stream":
        return x_membership_streaming(graph, vertex, ell)
    memo = x_membership(graph, vertex, ell)
    stream = x_membership_streaming(graph, vertex, ell)
    if memo != stream:
        raise LimrecError(
            f"engine disagreement at {vertex!r} with resource {ell}: memo={memo} stream={stream}"
        )
    return memo


# ---------------------------------------------------------------------------
# Recursion graphs


class LabelledGraph:
    """Interface the engines run on: a directed graph over tuple-valued
    vertices with per-vertex label sets of naturals.

    Subclasses provide out_neighbours (sorted ascending), in_degree, and
    label membership.  `memo` caches (vertex, resource) verdicts.

    label_bounds(vertex) is None when the label set is empty, else
    (lo, hi) with every count of the set in [lo, hi].  A class whose
    sets are exactly those intervals says so by `label_bounds_exact`.
    The memo engine asks the bounds before anything else about a
    vertex, and settles the vertex as soon as the children left cannot
    change its verdict (see `x_membership`).  The default answers
    (0, inf), not exact, which settles nothing early.  A subclass may
    override it with a cheap closed form; the streaming engine never
    asks it."""

    label_bounds_exact = False

    def __init__(self):
        self.memo: dict = {}

    def out_neighbours(self, vertex):
        raise NotImplementedError

    def in_degree(self, vertex) -> int:
        raise NotImplementedError

    def label_contains(self, vertex, count: int) -> bool:
        raise NotImplementedError

    def label_bounds(self, vertex) -> tuple | None:
        return _UNBOUNDED


_UNBOUNDED = (0, float("inf"))


class FormulaGraph(LabelledGraph):
    """Recursion graph of one lrec or lreceq node under a fixed outer
    assignment.

    Vertices are classes of tuples over Dom(u), each named by its
    lexicographically least member: for lreceq the classes of the
    reflexive-symmetric-transitive closure of the phi_= pairs, formed
    when the graph is made; for lrec single tuples.  A formula over u, v
    is tested on a pair (a, b) only when b is a candidate target of a:
    the tuples of its guard (`_guard` over v, with u bound) when the
    planned formula has one (an and-part that is an atom covering v, or
    guarded universals), else every tuple.  A vertex's out-neighbours
    (the classes of the candidate targets of its members that pass
    phi_edge, self-loops kept) and its label set (the union of its
    members') are computed when first asked.
    In-degrees are counted in one sweep over all out-neighbours at the
    first in_degree call, except in an lrec graph whose squared domain
    size exceeds the context threshold: there each vertex counts its
    candidate sources (the guard over u, with v bound) that pass.  The
    edge, label and equivalence formulas run the recursions nested in
    them on `engine`.
    """

    def __init__(self, ctx: EvalContext, node: Lrec | LrecEq, base_alpha, engine: str = "memo"):
        super().__init__()
        self.ctx = ctx
        self.node = node
        A = ctx.structure
        self.doms = [_domain(A, v) for v in node.u]
        self.dom_size = 1
        for d in self.doms:
            self.dom_size *= len(d)
        self.width_p = len(node.p)
        self.label_bound = (A.universe_size + 1) ** self.width_p
        self._edge_fn = _compile(ctx, node.phi_edge, engine)
        self._label_fn = _compile(ctx, node.phi_label, engine)
        edge_parts = self._guard_parts(node.phi_edge)
        self._targets = _candidates(ctx, edge_parts, node.v)
        self._sources = _candidates(ctx, edge_parts, node.u)
        # pairs bind u, v and labels bind u, p, each in its own copy of the
        # outer assignment, so neither overwrites an outer variable of the other
        self._alpha = dict(base_alpha)
        self._label_alpha = dict(base_alpha)
        self._out: dict = {}
        self._indeg: dict = {}
        self._label_cache: dict = {}
        self._sweep = isinstance(node, LrecEq) or self.dom_size ** 2 <= ctx.edge_threshold
        classes = []
        if isinstance(node, LrecEq):
            eq_fn = _compile(ctx, node.phi_eq, engine)
            eq_targets = _candidates(ctx, self._guard_parts(node.phi_eq), node.v)
            classes = _closure_classes(
                list(itertools.product(*self.doms)),
                lambda a: self._bound(eq_targets, node.u, a),
                lambda a, b: any(self._pairs(eq_fn, (a,), lambda alpha: (b,))),
            )
        # lreceq classes: representative -> members, member -> representative
        self._members = {members[0]: members for members in classes}
        self._rep_of = {t: members[0] for members in classes for t in members}

    def _guard_parts(self, formula):
        """The and-parts of the planned formula over u, v, where a guard
        is looked for.  Pairs bind u before v, so a guard over u read with
        v bound would be wrong for a variable of both: then there are none."""
        if set(self.node.u) & set(self.node.v):
            return ()
        return _parts(_plan(formula), And)

    def _pairs(self, fn, sources, targets):
        """The pairs (a, b) that satisfy fn over u, v, for a in sources and
        b in targets(alpha) with u bound to a."""
        alpha, u, v = self._alpha, self.node.u, self.node.v
        for a in sources:
            alpha.update(zip(u, a))
            for b in targets(alpha):
                alpha.update(zip(v, b))
                if fn(alpha):
                    yield a, b

    def _bound(self, cands, xs, values):
        """cands(alpha) with xs bound to values."""
        self._alpha.update(zip(xs, values))
        return cands(self._alpha)

    def class_of(self, tup):
        if isinstance(self.node, LrecEq):
            if tup in self._rep_of:
                return self._rep_of[tup]
        elif len(tup) == len(self.doms) and all(x in d for x, d in zip(tup, self.doms)):
            return tup
        raise DomainError(f"tuple {tup!r} outside the recursion domain")

    def _out_of(self, vertex):
        # the in-degree sweep calls this, so out_neighbours calls are the engines'
        out = self._out.get(vertex)
        if out is None:
            members = self._members.get(vertex, (vertex,))
            pairs = self._pairs(self._edge_fn, members, self._targets)
            out = self._out[vertex] = tuple(sorted({self.class_of(b) for _, b in pairs}))
        return out

    def out_neighbours(self, vertex):
        return self._out_of(vertex)

    def in_degree(self, vertex):
        if self._sweep:
            if not self._indeg:
                vertices = list(self._members or itertools.product(*self.doms))
                self._indeg = dict.fromkeys(vertices, 0)
                for a in vertices:
                    for b in self._out_of(a):
                        self._indeg[b] += 1
            return self._indeg[vertex]
        indeg = self._indeg.get(vertex)
        if indeg is None:
            sources = self._bound(self._sources, self.node.v, vertex)
            pairs = self._pairs(self._edge_fn, sources, lambda alpha: (vertex,))
            indeg = self._indeg[vertex] = sum(1 for _ in pairs)
        return indeg

    def label_contains(self, vertex, count):
        if count < 0 or count >= self.label_bound:
            return False
        key = (vertex, count)
        cached = self._label_cache.get(key)
        if cached is None:
            digits = num_decode(count, self.width_p, self.ctx.structure.universe_size)
            alpha = self._label_alpha
            alpha.update(zip(self.node.p, digits))
            cached = False
            for member in self._members.get(vertex, (vertex,)):
                alpha.update(zip(self.node.u, member))
                if self._label_fn(alpha):
                    cached = True
                    break
            self._label_cache[key] = cached
        return cached


def _closure_classes(domain, candidates, related):
    """Classes of the equivalence generated by the pairs (a, b), a in
    `domain` and b in candidates(a), that satisfy `related`, each in
    domain order.  Pairs already joined are not tested."""
    position = {t: i for i, t in enumerate(domain)}
    parent = list(range(len(domain)))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for i, a in enumerate(domain):
        for b in candidates(a):
            j = position[b]
            if i == j:
                continue
            ri, rj = find(i), find(j)
            if ri != rj and related(a, b):
                parent[max(ri, rj)] = min(ri, rj)
    classes: dict[int, list] = {}
    for i, t in enumerate(domain):
        classes.setdefault(find(i), []).append(t)
    return list(classes.values())


# ---------------------------------------------------------------------------
# Engines


def _child_resources(graph: LabelledGraph, children, ell: int) -> list:
    """The resource floor((ell-1)/in_degree(b)) of each child b of a vertex
    at resource ell >= 1; an in-degree below 1, or a resource that does not
    strictly decrease, is an error of the graph."""
    res = []
    for b in children:
        d = graph.in_degree(b)
        if d < 1:
            raise LimrecError(f"edge target {b!r} reports in-degree {d}")
        sub = (ell - 1) // d
        if sub >= ell:
            raise LimrecError(f"resource {ell} does not decrease along an edge to {b!r}")
        res.append(sub)
    return res


def x_membership(graph: LabelledGraph, vertex, resource: int) -> bool:
    """Memoized top-down decision of (vertex, resource) in X.

    X is not monotone in the resource, so the memo key is the exact
    pair.  Child resources floor((l-1)/in_degree) are strictly smaller,
    which grades the recursion; an explicit stack avoids Python's
    recursion limit on long in-degree-1 chains.

    A vertex is settled as soon as the children left cannot change its
    verdict.  With `graph.label_bounds` (lo, hi), count children
    accepted so far and left children not yet visited, it is False when
    count > hi or count + left < lo, and, for a graph whose bounds are
    exact, True when lo <= count and count + left <= hi.  A vertex
    reached with resource 0 or an empty label set (bounds None, asked
    before its out-neighbours are built) is False, and so is decided
    where it is reached, without a stack frame, as is a vertex that the
    rule settles before its first child.  Only a vertex whose children
    must be walked gets a frame; the in-degrees and resources of its
    children are checked before any of them is visited, the walk stops
    at the first child that settles it, and `label_contains` is asked
    only when every child is walked and none settled it.
    """
    memo = graph.memo
    key = (vertex, resource)
    if key in memo:
        return memo[key]
    exact = graph.label_bounds_exact
    # frame: [vertex, resource, children, child_resources, index, count, lo, hi];
    # the bottom frame holds the query as its one child and records nothing:
    # its bounds (1, -1) settle it after that child, whatever the verdict
    stack = [[None, None, (vertex,), (resource,), 0, 0, 1, -1]]
    while True:
        frame = stack[-1]
        _, _, children, resources, i, count, lo, hi = frame
        while i < len(children):
            ckey = (children[i], resources[i])
            verdict = memo.get(ckey)
            if verdict is None:
                v, ell = ckey
                bounds = None if ell <= 0 else graph.label_bounds(v)
                verdict = False
                if bounds is not None:
                    grand = graph.out_neighbours(v)
                    vlo, vhi = bounds
                    if exact and vlo <= 0 and len(grand) <= vhi:
                        verdict = True
                    elif len(grand) >= vlo:
                        frame[4], frame[5] = i, count
                        stack.append(
                            [v, ell, grand, _child_resources(graph, grand, ell), 0, 0, vlo, vhi]
                        )
                        break
                memo[ckey] = verdict
            i += 1
            if verdict:
                count += 1
                if count > hi:
                    verdict = False
                    break
            elif count + len(children) - i < lo:
                break
            if exact and lo <= count and count + len(children) - i <= hi:
                verdict = True
                break
        else:
            verdict = graph.label_contains(frame[0], count)
        if stack[-1] is frame:
            if len(stack) == 1:
                return memo[key]
            memo[(frame[0], frame[1])] = verdict
            stack.pop()


def _unravelling(graph: LabelledGraph, vertex, resource: int) -> dict:
    """The unravelling W at (vertex, resource), stored once per pair.

    The subtree of W below a node depends only on the node's (vertex,
    resource) pair, so W is kept as a table over the pairs it reaches:
    pair -> (size of the subtree of W below a node with that pair, its
    child pairs in visiting order).  A pair's children are its vertex's
    out-neighbours, each with resource floor((l-1)/in_degree); a pair
    with resource 0 is a failure leaf.  Children are visited in
    decreasing subtree size, then by vertex, then by resource.  The table
    is filled in post-order with an explicit stack, asking
    `out_neighbours` and `_child_resources` once per pair.
    """
    table: dict = {}
    # frame: [pair, child pairs, index of the next child to look at]
    stack = [[(vertex, resource), None, 0]]
    while stack:
        frame = stack[-1]
        pair, kids, i = frame
        if kids is None:
            v, ell = pair
            out = graph.out_neighbours(v) if ell > 0 else ()
            kids = frame[1] = list(zip(out, _child_resources(graph, out, ell)))
        while i < len(kids) and kids[i] in table:
            i += 1
        if i < len(kids):
            frame[2] = i
            stack.append([kids[i], None, 0])
            continue
        size = 1
        for child in kids:
            size += table[child][0]
        if len(kids) > 1:
            kids.sort(key=lambda child: (-table[child][0], child))
        table[pair] = (size, kids)
        stack.pop()
    return table


def x_membership_streaming(graph: LabelledGraph, vertex, resource: int) -> bool:
    """Streaming decision: a counter-based walk of the unravelling W.

    Children are visited in decreasing order of subtree size (ties by
    the child's vertex, then resource), each path level i keeping
    counters t(i), c(i) of 2*l_v(i) bits.  The counter budget
    sum_i 2*l_v(i) <= 6*log2|W| is checked exactly at every visit.  What
    is stored is the `_unravelling` table, one entry per (vertex,
    resource) pair reached (polynomial in the pairs, not logarithmic
    space), plus the path of counters; W itself is never stored.
    """
    table = _unravelling(graph, vertex, resource)
    root = (vertex, resource)
    w_count = table[root][0]
    w_pow6 = w_count ** 6
    w_bits = (w_count - 1).bit_length()
    # path frames: [pair, ordered children, next index (0-based), t, c, level_bits];
    # budget is sum 2*level_bits over the path, kept as the level bits change
    path = [[root, table[root][1], 0, 0, 0, w_bits]]
    budget = 2 * w_bits
    while True:
        frame = path[-1]
        pair, kids, idx = frame[0], frame[1], frame[2]
        if (1 << budget) > w_pow6:
            raise LimrecError(f"counter budget of {budget} bits exceeds 6*log2|W|, |W| = {w_count}")
        if idx < len(kids):
            child = kids[idx]
            j = idx + 1  # 1-based rank of the child being entered
            bits = (j - 1).bit_length()
            budget += 2 * (bits - frame[5]) + 2 * w_bits  # and the child's frame
            frame[5] = bits
            # t(i) = j-1 processed children must fit in l_v(i) bits
            if frame[3] != j - 1 or frame[3] > (1 << frame[5]) - 1:
                raise LimrecError(f"counter t = {frame[3]} does not fit in {frame[5]} bits")
            path.append([child, table[child][1], 0, 0, 0, w_bits])
            continue
        succeeds = pair[1] > 0 and graph.label_contains(pair[0], frame[4])
        path.pop()
        if not path:
            return bool(succeeds)
        parent = path[-1]
        parent[2] += 1
        parent[3] += 1
        if succeeds:
            parent[4] += 1
        budget += 2 * (w_bits - parent[5]) - 2 * frame[5]
        parent[5] = w_bits


# ---------------------------------------------------------------------------
# Transductions


@dataclass(frozen=True)
class Transduction:
    """An interpreted mapping of structures.

    `u` and `v` are compatible variable tuples; theta_v defines the new
    universe, theta_approx generates the glueing equivalence, and each
    relation is given as (formula, argument tuples), one tuple per
    argument position, each compatible with u.  theta_v reads only u,
    theta_approx only u and v, and a relation formula only its argument
    variables.
    """

    u: tuple[Var, ...]
    v: tuple[Var, ...]
    theta_v: Formula
    theta_approx: Formula
    relations: tuple[tuple[str, Formula, tuple[tuple[Var, ...], ...]], ...]

    def __post_init__(self):
        if not self.u or not compatible(self.u, self.v):
            raise FormulaError("transduction tuples u, v must be compatible")
        for name, _, arg_tuples in self.relations:
            for tup in arg_tuples:
                if not compatible(self.u, tup):
                    raise FormulaError(
                        f"argument tuple of {name} is incompatible with u"
                    )
        _check_declared(self.theta_v, self.u, "theta_v")
        _check_declared(self.theta_approx, self.u + self.v, "theta_approx")
        for name, formula, arg_tuples in self.relations:
            _check_declared(formula, sum(arg_tuples, ()), f"the formula of {name}")


def _check_declared(formula: Formula, declared, what: str):
    extra = sorted(free_variables(formula) - set(declared), key=lambda v: (v.name, v.sort))
    if extra:
        names = ", ".join(map(repr, extra))
        raise FormulaError(
            f"undeclared free variable{'s' if len(extra) > 1 else ''} {names} in {what}"
        )


def apply_transduction(theta: Transduction, structure: Structure) -> Structure:
    """Apply a transduction to a structure.

    The equivalence is generated (closed) over the whole tuple domain,
    so chains through tuples outside theta_v still glue; the output
    universe is the set of classes of theta_v tuples, renumbered by
    their lexicographically least member.  All defining formulae are
    decided by the evaluator.  As in an lreceq closure, theta_approx is
    tested on a pair (a, b) only when b is a candidate of its guard over
    v with u bound to a (every tuple when u and v share a variable), and
    a relation formula only on the candidates of its guard over its
    argument variables.
    """
    ctx = EvalContext(structure)
    doms = [_domain(structure, var) for var in theta.u]
    domain = list(itertools.product(*doms))
    alpha: dict = {}

    def holds(fn, pairs):
        alpha.update(pairs)
        return fn(alpha)

    universe_fn = _compile(ctx, theta.theta_v, "memo")
    v_tuples = [t for t in domain if holds(universe_fn, zip(theta.u, t))]
    if not v_tuples:
        raise DomainError("transduction undefined: empty universe formula")
    approx_fn = _compile(ctx, theta.theta_approx, "memo")
    shared = set(theta.u) & set(theta.v)
    approx_targets = _candidates(
        ctx, () if shared else _parts(_plan(theta.theta_approx), And), theta.v
    )
    classes = _closure_classes(
        domain,
        lambda a: holds(approx_targets, zip(theta.u, a)),
        lambda a, b: holds(approx_fn, [*zip(theta.u, a), *zip(theta.v, b)]),
    )
    in_universe = set(v_tuples)
    kept = [[t for t in group if t in in_universe] for group in classes]
    reps, _, rep_of = quotient_by_equivalence((group for group in kept if group), ())
    number = {rep: i for i, rep in enumerate(sorted(reps))}
    class_index = {t: number[rep] for t, rep in rep_of.items()}
    vocab = Vocabulary(tuple((name, len(args)) for name, _, args in theta.relations))
    relations = {}
    for name, formula, arg_tuples in theta.relations:
        # rows are values of all argument variables in order; a guard of
        # the formula over them gives the candidate rows
        xs = tuple(var for arg_vars in arg_tuples for var in arg_vars)
        ends = list(itertools.accumulate(len(arg_vars) for arg_vars in arg_tuples))
        fn = _compile(ctx, formula, "memo")
        guard = _guard(ctx, _parts(_plan(formula), And), xs)
        if guard is None:
            rows = (sum(combo, ()) for combo in itertools.product(v_tuples, repeat=len(arg_tuples)))
        else:
            rows = guard(alpha)
        tuples = set()
        for row in rows:
            combo = [row[end - len(arg_vars):end] for arg_vars, end in zip(arg_tuples, ends)]
            if not all(t in in_universe for t in combo):
                continue
            if holds(fn, zip(xs, row)):
                tuples.add(tuple(class_index[t] for t in combo))
        relations[name] = tuples
    return Structure(vocab, len(reps), relations)
