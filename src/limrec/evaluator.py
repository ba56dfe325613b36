"""Semantics: counting first-order logic plus the limited-recursion
operators, with two interchangeable recursion engines.

The memoized engine decides membership in the recursion relation X by
top-down recursion with exact (vertex, resource) caching; resources are
unbounded ints and strictly decrease along edges, so the recursion is on
a DAG and is run with an explicit stack.

The streaming engine follows the two-machine evaluation strategy: it
materializes the unravelling tree of the recursion graph at the queried
(vertex, resource) pair, then decides acceptance by a depth-first sweep
that visits children in decreasing subtree-size order while keeping
per-level counters.  It checks the logarithmic counter budget
(sum of 2*l_v(i) at most 6*log2 |W|) at every step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .errors import DomainError, FormulaError, LimrecError
from .structures import Structure, num_decode, num_encode, quotient_by_equivalence
from .syntax import (
    And, Atom, Count, Dtc, EqVar, Exists, Forall, Formula, LeqNum, Lrec,
    LrecEq, Not, Or, STRUCT, Var, _contains_dtc, _outer_variables, _rule, expand_dtc,
    free_variables,
)

EDGE_MATERIALIZE_THRESHOLD = 10 ** 6


class EvalContext:
    """Per-evaluation caches: compiled formula closures plus the recursion
    graphs of lrec and lreceq nodes (`formula_graph`), keyed by node and
    the assignment restricted to the node's outer free variables.  Never
    share across structures."""

    def __init__(self, structure: Structure):
        self.structure = structure
        self.edge_threshold = EDGE_MATERIALIZE_THRESHOLD
        self._graphs: dict = {}
        self._compiled: dict = {}

    def formula_graph(self, node: Lrec | LrecEq, alpha) -> FormulaGraph:
        """The recursion graph of `node` under `alpha`, built once per
        value of the node's outer variables."""
        entry = self._graphs.get(id(node))
        if entry is None:
            # holding the node keeps its id from being reused
            entry = self._graphs[id(node)] = (node, _outer_variables(node), {})
        _, outer, graphs = entry
        values = tuple(alpha[v] for v in outer)
        graph = graphs.get(values)
        if graph is None:
            graph = graphs[values] = FormulaGraph(self, node, dict(zip(outer, values)))
        return graph


def _domain(structure: Structure, var: Var) -> range:
    if var.sort == STRUCT:
        return range(structure.universe_size)
    return range(structure.universe_size + 1)


def _check_bound(structure, alpha, f):
    for var in free_variables(f):
        if var not in alpha:
            raise DomainError(f"unbound free variable {var!r}")
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
        if _contains_dtc(formula):
            formula = expand_dtc(formula)
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
    evaluates the planned formula `_plan(f)`, not f in source order."""
    key = (f, engine)
    fn = ctx._compiled.get(key)
    if fn is None:
        fn = _build(ctx, _plan(f), engine)
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
        tiers = [_cost(getattr(f, name), costs) for name, _ in _rule(f)[1]]
        entry = costs[id(f)] = (f, max([_TIER.get(type(f), 0)] + tiers))
    return entry[1]


def _parts(f: Formula, kind) -> list:
    """The operands of the chain of `kind` (And or Or) nodes at the top
    of f, in source order."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if type(g) is kind:
            stack += (g.right, g.left)
        else:
            out.append(g)
    return out


def _join(kind, parts, costs) -> Formula:
    """The `kind` chain of parts, cheapest first; ties keep their order."""
    if len(parts) > 1:
        parts = sorted(parts, key=lambda part: _cost(part, costs))
    out = parts[0]
    for part in parts[1:]:
        out = kind(out, part)
    return out


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
                quant = f  # nothing moves: f's planned body is already this chain
            else:
                quant = _miniscope(type(f)(f.var, _join(keep, bound, costs)), costs)
            kept[kept.index(None)] = quant
        out.append(_join(keep, kept, costs))
    return _join(spread, out, costs)


def _plan(f: Formula) -> Formula:
    """The formula the evaluator compiles for f: bottom up, quantifiers
    miniscoped and and/or operands in cost order."""
    costs: dict = {}

    def plan(g):
        subs = _rule(g)[1]
        if subs:
            g = replace(g, **{name: plan(getattr(g, name)) for name, _ in subs})
        if isinstance(g, (And, Or)):
            return _join(type(g), _parts(g, type(g)), costs)
        if isinstance(g, (Exists, Forall)):
            return _miniscope(g, costs)
        return g

    return plan(f)


def _build(ctx: EvalContext, f: Formula, engine: str):
    A = ctx.structure
    if isinstance(f, Atom):
        if f.rel not in A.vocab:
            raise FormulaError(f"structure has no relation {f.rel!r}")
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
        left = _build(ctx, f.left, engine)
        right = _build(ctx, f.right, engine)
        return lambda alpha: left(alpha) and right(alpha)
    if isinstance(f, Or):
        left = _build(ctx, f.left, engine)
        right = _build(ctx, f.right, engine)
        return lambda alpha: left(alpha) or right(alpha)
    if isinstance(f, (Exists, Forall)):
        want = isinstance(f, Exists)
        var = f.var
        dom = _domain(A, var)
        sub = _build(ctx, f.sub, engine)

        def quant(alpha, var=var, dom=dom, sub=sub, want=want):
            saved = alpha.get(var, _MISSING)
            try:
                for val in dom:
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
        doms = [_domain(A, v) for v in uvars]
        sub = _build(ctx, f.sub, engine)

        def count_fn(alpha):
            target = num_encode([alpha[p] for p in pvars], n)
            count = 0
            saved = [(v, alpha.get(v, _MISSING)) for v in uvars]
            try:
                for vals in itertools.product(*doms):
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
            graph = ctx.formula_graph(node, alpha)
            vertex = graph.class_of(tuple(alpha[x] for x in node.w))
            ell = num_encode([alpha[x] for x in node.r], n)
            return _run_engines(graph, vertex, ell, engine)

        return lrec_fn
    if isinstance(f, Dtc):
        raise FormulaError("dtc must be expanded before evaluation")
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

    label_any(vertex, top) says whether some count in [0, top] may lie
    in the label set; the memo engine asks it with top the vertex's
    out-degree and, on False, decides the vertex without visiting its
    children.  The default answers True (no pruning).  A subclass may
    override it with a cheap closed form that never answers False while
    some such count is in the label set; the streaming engine never
    asks it."""

    def __init__(self):
        self.memo: dict = {}

    def out_neighbours(self, vertex):
        raise NotImplementedError

    def in_degree(self, vertex) -> int:
        raise NotImplementedError

    def label_contains(self, vertex, count: int) -> bool:
        raise NotImplementedError

    def label_any(self, vertex, top: int) -> bool:
        return True


class FormulaGraph(LabelledGraph):
    """Recursion graph of one lrec or lreceq node under a fixed outer
    assignment.

    Vertices are classes of tuples over Dom(u), each named by its
    lexicographically least member: for lreceq the classes of the
    reflexive-symmetric-transitive closure of the phi_= pairs, for lrec
    single tuples (its quotient is the identity).  The graph is built up
    front: phi_edge is tested once on every pair of tuples and the edges
    are quotiented.  A vertex's label set is the union of those of its
    members.  An lrec graph whose squared domain size exceeds the
    context threshold is built on demand instead: each vertex is its own
    class, and its neighbours and in-degree are computed when first
    asked and cached.
    """

    def __init__(self, ctx: EvalContext, node: Lrec | LrecEq, base_alpha):
        super().__init__()
        self.ctx = ctx
        self.node = node
        self.base = base_alpha
        A = ctx.structure
        self.doms = [_domain(A, v) for v in node.u]
        self.dom_size = 1
        for d in self.doms:
            self.dom_size *= len(d)
        self.width_p = len(node.p)
        self.label_bound = (A.universe_size + 1) ** self.width_p
        self._edge_fn = _compile(ctx, node.phi_edge, "memo")
        self._label_fn = _compile(ctx, node.phi_label, "memo")
        self._alpha = dict(base_alpha)
        self._out: dict = {}
        self._indeg: dict = {}
        self._label_cache: dict = {}
        # built on demand, every tuple is its own class and only member
        self._class_of = None
        self._members: dict = {}
        if isinstance(node, LrecEq) or self.dom_size * self.dom_size <= ctx.edge_threshold:
            self._build()

    def _pairs(self, fn, sources, targets):
        """The pairs (a, b) in sources x targets that satisfy fn over u, v;
        targets is iterated once per source."""
        alpha, u, v = self._alpha, self.node.u, self.node.v
        for a in sources:
            alpha.update(zip(u, a))
            for b in targets:
                alpha.update(zip(v, b))
                if fn(alpha):
                    yield a, b

    def _build(self):
        node = self.node
        domain = list(itertools.product(*self.doms))
        if isinstance(node, LrecEq):
            eq_fn = _compile(self.ctx, node.phi_eq, "memo")
            classes = _closure_classes(domain, lambda a, b: any(self._pairs(eq_fn, (a,), (b,))))
        else:
            classes = [[t] for t in domain]
        edges = self._pairs(self._edge_fn, domain, domain)
        reps, qedges, self._class_of = quotient_by_equivalence(classes, edges)
        self._members = dict(zip(reps, classes))
        out: dict = {rep: [] for rep in reps}
        self._indeg = dict.fromkeys(reps, 0)
        for a, b in qedges:
            out[a].append(b)
            self._indeg[b] += 1
        self._out = {rep: tuple(sorted(ns)) for rep, ns in out.items()}

    def class_of(self, tup):
        if self._class_of is None:
            return tup
        try:
            return self._class_of[tup]
        except KeyError:
            raise DomainError(f"tuple {tup!r} outside the recursion domain") from None

    def out_neighbours(self, vertex):
        out = self._out.get(vertex)
        if out is None:  # built on demand
            pairs = self._pairs(self._edge_fn, (vertex,), itertools.product(*self.doms))
            out = self._out[vertex] = tuple(b for _, b in pairs)
        return out

    def in_degree(self, vertex):
        indeg = self._indeg.get(vertex)
        if indeg is None:  # built on demand
            pairs = self._pairs(self._edge_fn, itertools.product(*self.doms), (vertex,))
            indeg = self._indeg[vertex] = sum(1 for _ in pairs)
        return indeg

    def label_contains(self, vertex, count):
        if count < 0 or count >= self.label_bound:
            return False
        key = (vertex, count)
        cached = self._label_cache.get(key)
        if cached is None:
            digits = num_decode(count, self.width_p, self.ctx.structure.universe_size)
            alpha = self._alpha
            alpha.update(zip(self.node.p, digits))
            cached = False
            for member in self._members.get(vertex, (vertex,)):
                alpha.update(zip(self.node.u, member))
                if self._label_fn(alpha):
                    cached = True
                    break
            self._label_cache[key] = cached
        return cached


def _closure_classes(domain, related):
    """Classes of the equivalence generated by the pairs of `domain` that
    satisfy `related`, each in domain order.  Pairs already joined are
    not tested."""
    parent = list(range(len(domain)))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for i, a in enumerate(domain):
        for j, b in enumerate(domain):
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


def x_membership(graph: LabelledGraph, vertex, resource: int) -> bool:
    """Memoized top-down decision of (vertex, resource) in X.

    X is not monotone in the resource, so the memo key is the exact
    pair.  Child resources floor((l-1)/in_degree) are strictly smaller,
    which grades the recursion; an explicit stack avoids Python's
    recursion limit on long in-degree-1 chains.  A vertex whose label
    admits no count up to its out-degree (`graph.label_any`) is decided
    False once its children and their resources are checked, without
    visiting them.
    """
    memo = graph.memo
    key = (vertex, resource)
    if key in memo:
        return memo[key]
    # frame: [vertex, resource, children, child_resources, index, count]
    stack = [[vertex, resource, None, None, 0, 0]]
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
            children = graph.out_neighbours(v)
            res = []
            for b in children:
                d = graph.in_degree(b)
                if d < 1:
                    raise LimrecError(f"edge target {b!r} reports in-degree {d}")
                sub = (ell - 1) // d
                if sub >= ell:
                    raise LimrecError(f"resource {ell} does not decrease along an edge to {b!r}")
                res.append(sub)
            if not graph.label_any(v, len(children)):
                memo[fkey] = False
                stack.pop()
                continue
            frame[2] = children
            frame[3] = res
        advanced = False
        while frame[4] < len(frame[2]):
            ckey = (frame[2][frame[4]], frame[3][frame[4]])
            verdict = memo.get(ckey)
            if verdict is None:
                stack.append([ckey[0], ckey[1], None, None, 0, 0])
                advanced = True
                break
            frame[4] += 1
            if verdict:
                frame[5] += 1
        if advanced:
            continue
        memo[fkey] = graph.label_contains(v, frame[5])
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


def unravel(graph: LabelledGraph, vertex, resource: int) -> Unravelling:
    """Materialize the unravelling tree at (vertex, resource).

    Node children follow the graph's neighbour order (ascending tuple
    order, the fixed ordering used when walking the recursion graph);
    each child's resource is floor((l-1)/in_degree(child)); nodes with
    resource 0 are failure leaves.
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
        for b in graph.out_neighbours(vertices[i]):
            d = graph.in_degree(b)
            if d < 1:
                raise LimrecError(f"edge target {b!r} reports in-degree {d}")
            sub = (ell - 1) // d
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


def x_membership_streaming(graph: LabelledGraph, vertex, resource: int) -> bool:
    """Streaming decision: unravel, then accept by counter-based DFS.

    Children are visited in decreasing order of subtree size (ties by
    the child's representation), each path level i keeping counters
    t(i), c(i) of 2*l_v(i) bits.  The counter budget
    sum_i 2*l_v(i) <= 6*log2|W| is checked exactly at every visit.
    """
    tree = unravel(graph, vertex, resource)
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
            # t(i) = j-1 processed children must fit in l_v(i) bits
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


# ---------------------------------------------------------------------------
# Transductions


@dataclass(frozen=True)
class Transduction:
    """An interpreted mapping of structures.

    `u` and `v` are compatible variable tuples; theta_v defines the new
    universe, theta_approx generates the glueing equivalence, and each
    relation is given as (formula, argument tuples), one tuple per
    argument position, each compatible with u.
    """

    u: tuple[Var, ...]
    v: tuple[Var, ...]
    theta_v: Formula
    theta_approx: Formula
    relations: tuple[tuple[str, Formula, tuple[tuple[Var, ...], ...]], ...]

    def __post_init__(self):
        from .syntax import compatible

        if not self.u or not compatible(self.u, self.v):
            raise FormulaError("transduction tuples u, v must be compatible")
        for name, _, arg_tuples in self.relations:
            for tup in arg_tuples:
                if not compatible(self.u, tup):
                    raise FormulaError(
                        f"argument tuple of {name} is incompatible with u"
                    )


def apply_transduction(theta: Transduction, structure: Structure) -> Structure:
    """Apply a transduction to a structure.

    The equivalence is generated (closed) over the whole tuple domain,
    so chains through tuples outside theta_v still glue; the output
    universe is the set of classes of theta_v tuples, renumbered by
    their lexicographically least member.  All defining formulae are
    decided by the evaluator.
    """
    from .structures import Vocabulary

    ctx = EvalContext(structure)
    doms = [_domain(structure, var) for var in theta.u]
    domain = list(itertools.product(*doms))
    alpha: dict = {}

    def holds(formula, pairs):
        for var, val in pairs:
            alpha[var] = val
        return _compile(ctx, formula, "memo")(alpha)

    v_tuples = [t for t in domain if holds(theta.theta_v, zip(theta.u, t))]
    if not v_tuples:
        raise DomainError("transduction undefined: empty universe formula")
    classes = _closure_classes(
        domain,
        lambda a, b: holds(theta.theta_approx, list(zip(theta.u, a)) + list(zip(theta.v, b))),
    )
    in_universe = set(v_tuples)
    kept = [[t for t in group if t in in_universe] for group in classes]
    reps, _, rep_of = quotient_by_equivalence((group for group in kept if group), ())
    number = {rep: i for i, rep in enumerate(sorted(reps))}
    class_index = {t: number[rep] for t, rep in rep_of.items()}
    vocab = Vocabulary(tuple((name, len(args)) for name, _, args in theta.relations))
    relations = {}
    for name, formula, arg_tuples in theta.relations:
        tuples = set()
        for combo in itertools.product(v_tuples, repeat=len(arg_tuples)):
            pairs = []
            for arg_vars, value in zip(arg_tuples, combo):
                pairs.extend(zip(arg_vars, value))
            if holds(formula, pairs):
                tuples.add(tuple(class_index[t] for t in combo))
        relations[name] = tuples
    return Structure(vocab, len(reps), relations)
