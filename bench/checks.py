"""Output checks that do not use `limrec`.

Each check recomputes what the output must satisfy from the generated
input alone, with explicit loops and stacks: no function here recurses,
so deep inputs cannot overflow the interpreter stack.  A check returns
None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

from collections import Counter


class CheckError(Exception):
    """Output that cannot even be parsed."""


def parse_canon(stdout: str):
    """`n N` followed by one `u v` edge per line, vertices 1..N."""
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("n "):
        raise CheckError("missing `n N` header")
    n = int(lines[0].split()[1])
    edges = []
    for line in lines[1:]:
        a, b = (int(t) for t in line.split())
        if not (1 <= a <= n and 1 <= b <= n) or a == b:
            raise CheckError(f"edge {a} {b} outside 1..{n}")
        edges.append((a, b))
    return n, edges


# --- trees ----------------------------------------------------------------


def ahu_string(n: int, edges, first: int = 0) -> str:
    """Aho-Hopcroft-Ullman encoding of the rooted tree over vertices
    first..first+n-1 with parent -> child edges: equal strings iff
    isomorphic rooted trees.  Raises CheckError if it is not a tree."""
    children = {v: [] for v in range(first, first + n)}
    has_parent = set()
    for a, b in edges:
        if b in has_parent:
            raise CheckError(f"vertex {b} has two parents")
        has_parent.add(b)
        children[a].append(b)
    roots = [v for v in children if v not in has_parent]
    if len(roots) != 1:
        raise CheckError(f"{len(roots)} roots")
    order = [roots[0]]
    for v in order:
        order.extend(children[v])
    if len(order) != n:
        raise CheckError("not connected")
    code = {}
    for v in reversed(order):
        code[v] = "(" + "".join(sorted(code[c] for c in children[v])) + ")"
    return code[roots[0]]


def check_tree_canon(stdout: str, n: int, input_ahu: str):
    size, edges = parse_canon(stdout)
    if size != n or len(edges) != n - 1:
        return f"canonical copy has {size} vertices and {len(edges)} edges, expected {n}, {n - 1}"
    if any(a >= b for a, b in edges):
        return "canonical copy is not preorder numbered"
    if ahu_string(size, edges, first=1) != input_ahu:
        return "canonical copy is not isomorphic to the input"
    return None


# --- interval graphs ------------------------------------------------------


def refinement_histograms(graphs):
    """Colour refinement run on the disjoint union of `graphs`, each given
    as (n, adjacency dict); returns one histogram of stable colours per
    graph.  Isomorphic graphs have equal histograms."""
    nodes = [(g, v) for g, (_, adj) in enumerate(graphs) for v in adj]
    colour = {node: 0 for node in nodes}
    count = 1
    while True:
        palette = {}
        new = {}
        for g, v in nodes:
            adj = graphs[g][1]
            sig = (colour[(g, v)], tuple(sorted(colour[(g, w)] for w in adj[v])))
            new[(g, v)] = palette.setdefault(sig, len(palette))
        colour = new
        if len(palette) == count:
            break
        count = len(palette)
    return [Counter(colour[(g, v)] for v in adj) for g, (_, adj) in enumerate(graphs)]


def adjacency(vertices, edges) -> dict:
    adj = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def check_interval_canon(stdout: str, n: int, edges):
    size, out_edges = parse_canon(stdout)
    pairs = {(min(a, b), max(a, b)) for a, b in out_edges}
    want = {(min(a, b), max(a, b)) for a, b in edges}
    if size != n or len(pairs) != len(out_edges) or len(pairs) != len(want):
        return f"canonical copy has {size} vertices and {len(out_edges)} edges, expected {n}, {len(want)}"
    left = (n, adjacency(range(n), want))
    right = (size, adjacency(range(1, size + 1), pairs))
    hist_in, hist_out = refinement_histograms([left, right])
    if hist_in != hist_out:
        return "colour refinement histogram differs from the input's"
    return None


def check_interval_model(stdout: str, n: int, edges):
    """The printed `vertex left right` model must have the input as its
    intersection graph, edge by edge."""
    spans = {}
    for line in stdout.splitlines():
        name, left, right = line.split()
        v, lo, hi = int(name), int(left), int(right)
        if v in spans or not (0 <= v < n) or lo > hi:
            return f"bad model line {line!r}"
        spans[v] = (lo, hi)
    if len(spans) != n:
        return f"model covers {len(spans)} of {n} vertices"
    for u in range(n):
        lu, ru = spans[u]
        for v in range(u + 1, n):
            lv, rv = spans[v]
            if (lv <= ru and lu <= rv) != ((u, v) in edges):
                return f"model disagrees with the graph at {u} {v}"
    return None


# --- logic ----------------------------------------------------------------


def circuit_value(n: int, edges, kinds, root: int) -> bool:
    """Bottom-up evaluation in reverse depth-first order."""
    out = {v: [] for v in range(n)}
    for a, b in edges:
        out[a].append(b)
    order = [root]
    for v in order:
        order.extend(out[v])
    value = {}
    for v in reversed(order):
        kind = kinds[v]
        if kind in ("P0", "P1"):
            value[v] = kind == "P1"
        elif kind == "Pnot":
            value[v] = not value[out[v][0]]
        elif kind == "Pand":
            value[v] = all(value[w] for w in out[v])
        else:
            value[v] = any(value[w] for w in out[v])
    return value[root]


def deterministic_reach(edges, s: int, t: int) -> bool:
    """Follow unique out-neighbours from s; true iff t is met."""
    out = {}
    for a, b in edges:
        out.setdefault(a, []).append(b)
    cur, seen = s, set()
    while cur != t:
        if cur in seen or len(out.get(cur, ())) != 1:
            return False
        seen.add(cur)
        cur = out[cur][0]
    return True


def component(n: int, edges, s: int) -> set:
    """The vertices joined to s by undirected edges, by union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    root = find(s)
    return {v for v in range(n) if find(v) == root}


def connected(n: int, edges, s: int, t: int) -> bool:
    return t in component(n, edges, s)


def check_two_paths(stdout: str, n: int):
    """The transduced layered graph: 2n vertices forming two directed
    paths of n vertices each."""
    universe = None
    edges = []
    for line in stdout.splitlines():
        toks = line.split()
        if toks[0] == "universe":
            universe = int(toks[1])
        elif toks[0] == "E":
            edges.append((int(toks[1]), int(toks[2])))
    if universe != 2 * n or len(edges) != 2 * (n - 1):
        return f"got {universe} vertices and {len(edges)} edges, expected {2 * n}, {2 * (n - 1)}"
    succ = dict(edges)
    has_pred = {b for _, b in edges}
    if len(succ) != len(edges) or len(has_pred) != len(edges):
        return "a vertex has two successors or two predecessors"
    starts = [v for v in range(universe) if v not in has_pred]
    lengths = []
    for v in starts:
        length = 1
        while v in succ and length <= universe:
            v = succ[v]
            length += 1
        lengths.append(length)
    if lengths != [n, n]:
        return f"path lengths {lengths}, expected two of {n}"
    return None
