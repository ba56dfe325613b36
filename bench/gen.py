"""Seeded input generators for the benchmark.

Everything here is standard library only and independent of `limrec`, so
a change to the library's own generators never changes what the
benchmark measures.  Every generator returns exactly the size it was
asked for; `actual_size` measures it back from the written text.
"""

from __future__ import annotations

import random

GRAPH_VOCAB = "vocab E/2"
CIRCUIT_VOCAB = "vocab E/2 Pand/1 Por/1 Pnot/1 P0/1 P1/1"


def structure_text(vocab: str, n: int, edges, unary=()) -> str:
    """Structure file text over element indices 0..n-1."""
    lines = [vocab, f"universe {n}"]
    lines += [f"E {a} {b}" for a, b in sorted(edges)]
    lines += [f"{rel} {v}" for rel, v in sorted(unary)]
    return "\n".join(lines) + "\n"


def symmetric(pairs) -> set:
    pairs = list(pairs)
    return {(a, b) for a, b in pairs} | {(b, a) for a, b in pairs}


def relabel(edges, perm) -> set:
    return {(perm[a], perm[b]) for a, b in edges}


def permutation(n: int, rng: random.Random) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# --- directed trees (E is parent -> child, vertex 0 is the root) ----------


def random_tree(n: int, rng: random.Random) -> set:
    """Uniform random attachment."""
    return {(rng.randrange(child), child) for child in range(1, n)}


def path_tree(n: int) -> set:
    return {(i, i + 1) for i in range(n - 1)}


def star_tree(n: int) -> set:
    return {(0, i) for i in range(1, n)}


def spider_tree(legs: int, length: int) -> set:
    """A root with `legs` paths of `length` vertices hanging off it."""
    edges = set()
    nxt = 1
    for _ in range(legs):
        prev = 0
        for _ in range(length):
            edges.add((prev, nxt))
            prev = nxt
            nxt += 1
    return edges


def binary_tree(n: int) -> set:
    """Complete binary tree in heap order."""
    return {((i - 1) // 2, i) for i in range(1, n)}


# --- undirected graphs ----------------------------------------------------


def random_interval_graph(n: int, rng: random.Random) -> set:
    """Intersection graph of n random closed intervals in [1, 2n]."""
    spans = []
    for _ in range(n):
        a, b = rng.randint(1, 2 * n), rng.randint(1, 2 * n)
        spans.append((min(a, b), max(a, b)))
    return symmetric(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if spans[u][0] <= spans[v][1] and spans[v][0] <= spans[u][1]
    )


def path_graph(n: int) -> set:
    return symmetric((i, i + 1) for i in range(n - 1))


def band_graph(n: int, width: int = 2) -> set:
    """Vertices i, j adjacent iff 0 < |i - j| <= width (bandwidth `width`)."""
    return symmetric((i, j) for i in range(n) for j in range(i + 1, min(n, i + width + 1)))


def cycle_graph(n: int) -> set:
    return symmetric((i, (i + 1) % n) for i in range(n))


def sparse_graph(n: int, rng: random.Random) -> set:
    """About n/2 random undirected edges, so several components."""
    pairs = set()
    while len(pairs) < n // 2:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    return symmetric(pairs)


def functional_digraph(n: int, rng: random.Random) -> set:
    """Every vertex has one random out-edge; every eighth vertex gets a
    second one, which makes it non-deterministic."""
    edges = set()
    for a in range(n):
        targets = [b for b in range(n) if b != a]
        edges.add((a, rng.choice(targets)))
        if a % 8 == 7:
            edges.add((a, rng.choice(targets)))
    return edges


def layered_graph(n: int) -> set:
    """Two towers of n layers with n vertices each, consecutive layers
    fully joined; vertex j*n*n + i*n + t is tower j, layer i, slot t."""
    return {
        (j * n * n + i * n + a, j * n * n + (i + 1) * n + b)
        for j in range(2)
        for i in range(n - 1)
        for a in range(n)
        for b in range(n)
    }


# --- Boolean circuits -----------------------------------------------------


def not_chain(n: int, leaf: str):
    """n - 1 negations above one constant leaf; gate 0 is the output."""
    kinds = {i: "Pnot" for i in range(n - 1)}
    kinds[n - 1] = leaf
    return path_tree(n), kinds


def random_circuit(n: int, rng: random.Random):
    """Tree-shaped circuit with exactly n gates and fan-in at most 3.

    Each new gate hangs below a random earlier gate that still has room,
    so the shape never dies out early; gate kinds follow the fan-in.
    """
    kids = [0] * n
    edges = set()
    for child in range(1, n):
        parent = rng.randrange(child)
        while kids[parent] == 3:
            parent = rng.randrange(child)
        kids[parent] += 1
        edges.add((parent, child))
    kinds = {}
    for v in range(n):
        if kids[v] == 0:
            kinds[v] = rng.choice(("P0", "P1"))
        elif kids[v] == 1:
            kinds[v] = rng.choice(("Pnot", "Pand", "Por"))
        else:
            kinds[v] = rng.choice(("Pand", "Por"))
    return edges, kinds


def circuit_text(n: int, edges, kinds) -> str:
    return structure_text(CIRCUIT_VOCAB, n, edges, ((k, v) for v, k in kinds.items()))


def actual_size(family: str, text: str) -> int:
    """The size of a generated input, measured from its text the way the
    requested size is defined for the family."""
    universe = next(int(line.split()[1]) for line in text.splitlines() if line.startswith("universe"))
    if family == "layered":
        return round((universe // 2) ** 0.5)
    if family == "spider":
        return universe - 1
    return universe
