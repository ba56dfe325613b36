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
from dataclasses import dataclass

from .errors import DomainError, FormulaError, LimrecError
from .structures import Structure, num_decode, num_encode, quotient_by_equivalence
from .syntax import (
    And, Atom, Count, Dtc, EqVar, Exists, Forall, Formula, LeqNum, Lrec,
    LrecEq, Not, Or, STRUCT, Var, _contains_dtc, _outer_variables, expand_dtc,
    free_variables,
)

EDGE_MATERIALIZE_THRESHOLD = 10 ** 6


class EvalContext:
    """Per-evaluation caches: compiled formula closures plus the
    formula-defined recursion graphs and quotients, keyed by lrec node
    and the assignment restricted to the node's outer free variables.
    Never share across structures."""

    def __init__(self, structure: Structure):
        self.structure = structure
        self.edge_threshold = EDGE_MATERIALIZE_THRESHOLD
        self._graphs: dict = {}
        self._compiled: dict = {}

    def formula_graph(self, node: Lrec, alpha):
        return self._graph(FormulaGraph, node, alpha)

    def quotient_graph(self, node: LrecEq, alpha):
        return self._graph(QuotientGraph, node, alpha)

    def _graph(self, kind, node, alpha):
        """The graph of `node` under `alpha`, built once per value of the
        node's outer variables."""
        entry = self._graphs.get(id(node))
        if entry is None:
            # holding the node keeps its id from being reused
            entry = self._graphs[id(node)] = (node, _outer_variables(node), {})
        _, outer, graphs = entry
        values = tuple(alpha[v] for v in outer)
        graph = graphs.get(values)
        if graph is None:
            graph = graphs[values] = kind(self, node, dict(zip(outer, values)))
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
    lets sweeps share recursion graphs between calls.
    """
    if engine not in ("memo", "stream", "both"):
        raise LimrecError(f"unknown engine {engine!r}")
    if _contains_dtc(formula):
        formula = expand_dtc(formula)
    alpha = dict(assignment)
    _check_bound(structure, alpha, formula)
    if ctx is None:
        ctx = EvalContext(structure)
    elif ctx.structure is not structure and ctx.structure != structure:
        raise LimrecError("context was built for a different structure")
    return _eval(ctx, alpha, formula, engine)


class _Missing:
    pass


_MISSING = _Missing()


def _eval(ctx: EvalContext, alpha, f: Formula, engine: str) -> bool:
    return _compile(ctx, f, engine)(alpha)


def _compile(ctx: EvalContext, f: Formula, engine: str):
    """Build (and cache) a closure deciding f over a mutating assignment
    dict.  Quantifier closures save and restore the binding they touch,
    so sharing one dict across calls is safe."""
    key = (f, engine)
    fn = ctx._compiled.get(key)
    if fn is None:
        fn = _build(ctx, f, engine)
        ctx._compiled[key] = fn
    return fn


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
        sub = _compile(ctx, f.sub, engine)
        return lambda alpha: not sub(alpha)
    if isinstance(f, And):
        left = _compile(ctx, f.left, engine)
        right = _compile(ctx, f.right, engine)
        return lambda alpha: left(alpha) and right(alpha)
    if isinstance(f, Or):
        left = _compile(ctx, f.left, engine)
        right = _compile(ctx, f.right, engine)
        return lambda alpha: left(alpha) or right(alpha)
    if isinstance(f, (Exists, Forall)):
        want = isinstance(f, Exists)
        var = f.var
        dom = _domain(A, var)
        sub = _compile(ctx, f.sub, engine)

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
        sub = _compile(ctx, f.sub, engine)

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
    if isinstance(f, Lrec):
        node = f
        n = A.universe_size

        def lrec_fn(alpha):
            graph = ctx.formula_graph(node, alpha)
            vertex = tuple(alpha[x] for x in node.w)
            ell = num_encode([alpha[x] for x in node.r], n)
            return _run_engines(graph, vertex, ell, engine)

        return lrec_fn
    if isinstance(f, LrecEq):
        node = f
        n = A.universe_size

        def lrec_eq_fn(alpha):
            graph = ctx.quotient_graph(node, alpha)
            vertex = graph.class_of(tuple(alpha[x] for x in node.w))
            ell = num_encode([alpha[x] for x in node.r], n)
            return _run_engines(graph, vertex, ell, engine)

        return lrec_eq_fn
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
    label membership.  `memo` caches (vertex, resource) verdicts."""

    def __init__(self):
        self.memo: dict = {}

    def out_neighbours(self, vertex):
        raise NotImplementedError

    def in_degree(self, vertex) -> int:
        raise NotImplementedError

    def label_contains(self, vertex, count: int) -> bool:
        raise NotImplementedError


class ExplicitGraph(LabelledGraph):
    """A fully materialized labelled graph, mostly for tests."""

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


class FormulaGraph(LabelledGraph):
    """Recursion graph of one lrec node under a fixed outer assignment.

    Vertices are tuples over Dom(u).  When the squared domain size is at
    most the context threshold the whole edge relation is materialized
    up front; otherwise neighbours and in-degrees are computed on demand
    and cached per vertex.
    """

    def __init__(self, ctx: EvalContext, node: Lrec, base_alpha):
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
        self._out_cache: dict = {}
        self._indeg_cache: dict = {}
        self._label_cache: dict = {}
        self._materialized = False
        if self.dom_size * self.dom_size <= ctx.edge_threshold:
            self._materialize()

    def _edge_test(self, a, b) -> bool:
        alpha = self._alpha
        for var, val in zip(self.node.u, a):
            alpha[var] = val
        for var, val in zip(self.node.v, b):
            alpha[var] = val
        return self._edge_fn(alpha)

    def _materialize(self):
        vertices = list(itertools.product(*self.doms))
        out = {v: [] for v in vertices}
        indeg = {v: 0 for v in vertices}
        for a in vertices:
            for b in vertices:
                if self._edge_test(a, b):
                    out[a].append(b)
                    indeg[b] += 1
        self._out_cache = {v: tuple(ns) for v, ns in out.items()}
        self._indeg_cache = indeg
        self._materialized = True

    def out_neighbours(self, vertex):
        cached = self._out_cache.get(vertex)
        if cached is None:
            cached = tuple(
                b for b in itertools.product(*self.doms) if self._edge_test(vertex, b)
            )
            self._out_cache[vertex] = cached
        return cached

    def in_degree(self, vertex):
        cached = self._indeg_cache.get(vertex)
        if cached is None:
            cached = sum(
                1 for a in itertools.product(*self.doms) if self._edge_test(a, vertex)
            )
            self._indeg_cache[vertex] = cached
        return cached

    def label_contains(self, vertex, count):
        if count < 0 or count >= self.label_bound:
            return False
        key = (vertex, count)
        cached = self._label_cache.get(key)
        if cached is None:
            digits = num_decode(count, self.width_p, self.ctx.structure.universe_size)
            alpha = self._alpha
            for var, val in zip(self.node.u, vertex):
                alpha[var] = val
            for var, val in zip(self.node.p, digits):
                alpha[var] = val
            cached = self._label_fn(alpha)
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


class QuotientGraph(LabelledGraph):
    """Recursion graph of an lrec= node: the base graph quotiented by the
    reflexive-symmetric-transitive closure of the phi_= pairs, with label
    sets unioned over each class.

    The tuple domain is materialized; the quotient needs the full closure
    anyway, and lrec= instances stay at desk scale.
    """

    def __init__(self, ctx: EvalContext, node: LrecEq, base_alpha):
        super().__init__()
        self.ctx = ctx
        self.node = node
        self.base = base_alpha
        A = ctx.structure
        doms = [_domain(A, v) for v in node.u]
        self.domain = list(itertools.product(*doms))
        self._label_fn = _compile(ctx, node.phi_label, "memo")
        alpha = dict(base_alpha)
        self._alpha = alpha

        def pair_test(formula):
            fn = _compile(ctx, formula, "memo")

            def test(a, b):
                alpha.update(zip(node.u, a))
                alpha.update(zip(node.v, b))
                return fn(alpha)

            return test

        classes = _closure_classes(self.domain, pair_test(node.phi_eq))
        edge_test = pair_test(node.phi_edge)
        edges = ((a, b) for a in self.domain for b in self.domain if edge_test(a, b))
        # class representative: lexicographically least member
        reps, qedges, self._class_of = quotient_by_equivalence(classes, edges)
        self._members = dict(zip(reps, classes))
        out: dict = {rep: [] for rep in reps}
        indeg: dict = {rep: 0 for rep in reps}
        for a, b in qedges:
            out[a].append(b)
            indeg[b] += 1
        self._out = {rep: tuple(sorted(ns)) for rep, ns in out.items()}
        self._indeg = indeg
        self.width_p = len(node.p)
        self.label_bound = (A.universe_size + 1) ** self.width_p
        self._label_cache: dict = {}

    def class_of(self, tup):
        try:
            return self._class_of[tup]
        except KeyError:
            raise DomainError(f"tuple {tup!r} outside the recursion domain") from None

    def out_neighbours(self, vertex):
        return self._out[vertex]

    def in_degree(self, vertex):
        return self._indeg[vertex]

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
            for member in self._members[vertex]:
                alpha.update(zip(self.node.u, member))
                if self._label_fn(alpha):
                    cached = True
                    break
            self._label_cache[key] = cached
        return cached


# ---------------------------------------------------------------------------
# Engines


def x_membership(graph: LabelledGraph, vertex, resource: int) -> bool:
    """Memoized top-down decision of (vertex, resource) in X.

    X is not monotone in the resource, so the memo key is the exact
    pair.  Child resources floor((l-1)/in_degree) are strictly smaller,
    which grades the recursion; an explicit stack avoids Python's
    recursion limit on long in-degree-1 chains.
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
# Public lrec entry points (operate on a structure + assignment + node)


def lrec_membership(structure: Structure, assignment, node: Lrec, vertex, resource: int,
                    ctx: EvalContext | None = None) -> bool:
    """Membership of (vertex, resource) in the relation defined by an
    lrec node under the given assignment."""
    if ctx is None:
        ctx = EvalContext(structure)
    graph = ctx.formula_graph(node, dict(assignment))
    return x_membership(graph, tuple(vertex), resource)


def lrec_membership_streaming(structure: Structure, assignment, node: Lrec, vertex,
                              resource: int, ctx: EvalContext | None = None) -> bool:
    if ctx is None:
        ctx = EvalContext(structure)
    graph = ctx.formula_graph(node, dict(assignment))
    return x_membership_streaming(graph, tuple(vertex), resource)


def lrec_eq_membership(structure: Structure, assignment, node: LrecEq, vertex,
                       resource: int, ctx: EvalContext | None = None) -> bool:
    """Membership for lrec=: quotient the graph by the closure of phi_=,
    union the labels over each class, then run the plain X-semantics."""
    if ctx is None:
        ctx = EvalContext(structure)
    graph = ctx.quotient_graph(node, dict(assignment))
    return x_membership(graph, graph.class_of(tuple(vertex)), resource)


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
