"""Finite relational structures over a two-sorted universe.

A structure has universe elements 0..n-1 plus an implicit number sort
N = {0, ..., n}.  Number tuples encode integers in base n+1 (little
endian), which is how counting results and recursion resources are
compared.  All encoded values are exact Python ints; they routinely
exceed 64 bits for wider tuples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DomainError, ParseError


@dataclass(frozen=True)
class Vocabulary:
    """A set of relation symbols with fixed arities."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.symbols]
        if len(set(names)) != len(names):
            raise DomainError("duplicate relation symbol names")
        for name, ar in self.symbols:
            if ar < 1:
                raise DomainError(f"relation {name} must have arity >= 1")

    def arity(self, name: str) -> int:
        for sym, ar in self.symbols:
            if sym == name:
                return ar
        raise DomainError(f"unknown relation symbol {name!r}")

    def __contains__(self, name: str) -> bool:
        return any(sym == name for sym, _ in self.symbols)


class Structure:
    """An immutable finite relational structure.

    Elements are the indices 0..universe_size-1.  The number sort
    [0, universe_size] is derived and never stored.  Optional element
    names are only used by the file format and the CLI.
    """

    def __init__(self, vocab: Vocabulary, universe_size: int, relations=None, names=None):
        if universe_size < 1:
            raise DomainError("universe must have at least one element")
        self.vocab = vocab
        self.universe_size = universe_size
        rels = {name: frozenset() for name, _ in vocab.symbols}
        for name, tuples in (relations or {}).items():
            ar = vocab.arity(name)
            frozen = frozenset(map(tuple, tuples))
            # one pass over the lengths and the extreme elements decides the
            # relation; the tuple loop runs only to name the offending tuple
            if frozen and not (
                set(map(len, frozen)) == {ar}
                and 0 <= min(map(min, frozen))
                and max(map(max, frozen)) < universe_size
            ):
                for t in frozen:
                    if len(t) != ar:
                        raise DomainError(f"tuple {t} has wrong arity for {name}/{ar}")
                    if any(not (0 <= e < universe_size) for e in t):
                        raise DomainError(f"tuple {t} of {name} outside universe")
            rels[name] = frozen
        self.relations = rels
        self._index = {}
        if names is not None:
            names = tuple(names)
            self._index = {name: i for i, name in enumerate(names)}
            if len(names) != universe_size or len(self._index) != universe_size:
                raise DomainError("element names must be distinct, one per element")
        self.names = names

    def rel(self, name: str) -> frozenset:
        try:
            return self.relations[name]
        except KeyError:
            raise DomainError(f"unknown relation symbol {name!r}") from None

    def binary_rel(self, name: str) -> frozenset:
        """The pairs of `name`, which must be a binary relation."""
        arity = self.vocab.arity(name)
        if arity != 2:
            raise DomainError(f"relation {name} must be binary, not {name}/{arity}")
        return self.relations[name]

    def element_index(self, token: str) -> int:
        """Resolve an element given by name or by decimal index."""
        if token in self._index:
            return self._index[token]
        try:
            idx = int(token)
        except ValueError:
            raise DomainError(f"unknown element {token!r}") from None
        if not (0 <= idx < self.universe_size):
            raise DomainError(f"element index {idx} outside universe")
        return idx

    def element_name(self, idx: int) -> str:
        return self.names[idx] if self.names else str(idx)

    def __eq__(self, other):
        return (
            isinstance(other, Structure)
            and self.vocab == other.vocab
            and self.universe_size == other.universe_size
            and self.relations == other.relations
        )

    def __repr__(self):
        rels = {k: len(v) for k, v in self.relations.items()}
        return f"Structure(n={self.universe_size}, {rels})"

    @classmethod
    def parse(cls, text: str) -> "Structure":
        """Parse the structure text format.

        Line oriented: `vocab R/2 P/1 ...`, `universe 11`, optional
        `names a b c ...`, then one `R a b` line per tuple.  `#` starts
        a comment; tokens are whitespace separated.
        """
        vocab = None
        universe = None
        names = None
        tuple_lines = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            head = toks[0]
            if head == "vocab":
                syms = []
                for tok in toks[1:]:
                    if "/" not in tok:
                        raise ParseError(f"bad vocab entry {tok!r}, expected name/arity", lineno, 1)
                    name, ar = tok.rsplit("/", 1)
                    try:
                        syms.append((name, int(ar)))
                    except ValueError:
                        raise ParseError(f"bad arity in {tok!r}", lineno, 1) from None
                vocab = Vocabulary(tuple(syms))
            elif head == "universe":
                if len(toks) != 2:
                    raise ParseError("universe line takes one number", lineno, 1)
                try:
                    universe = int(toks[1])
                except ValueError:
                    raise ParseError(f"bad universe size {toks[1]!r}", lineno, 1) from None
            elif head == "names":
                names = toks[1:]
            else:
                tuple_lines.append((lineno, toks))
        if vocab is None:
            raise ParseError("missing vocab line")
        if universe is None:
            raise ParseError("missing universe line")
        structure = cls(vocab, universe, names=names)
        # token -> element: the names, and every other token once
        # element_index has read it (or raised the error that says why not)
        element = dict(structure._index)
        arities = dict(vocab.symbols)
        relations: dict[str, set] = {name: set() for name in arities}
        for lineno, toks in tuple_lines:
            rel = toks[0]
            ar = arities.get(rel)
            if ar is None:
                raise ParseError(f"unknown relation {rel!r}", lineno, 1)
            if len(toks) - 1 != ar:
                raise ParseError(f"{rel} takes {ar} arguments, got {len(toks) - 1}", lineno, 1)
            try:
                t = tuple(map(element.__getitem__, toks[1:]))
            except KeyError:
                try:
                    t = tuple(map(structure.element_index, toks[1:]))
                except DomainError as exc:
                    raise ParseError(str(exc), lineno, 1) from None
                element.update(zip(toks[1:], t))
            relations[rel].add(t)
        # every tuple was checked as it was read
        structure.relations = {name: frozenset(ts) for name, ts in relations.items()}
        return structure

    def serialize(self) -> str:
        lines = ["vocab " + " ".join(f"{n}/{a}" for n, a in self.vocab.symbols)]
        lines.append(f"universe {self.universe_size}")
        if self.names:
            lines.append("names " + " ".join(self.names))
        for name, _ in self.vocab.symbols:
            for t in sorted(self.relations[name]):
                lines.append(name + " " + " ".join(self.element_name(e) for e in t))
        return "\n".join(lines) + "\n"


def num_encode(entries, n: int) -> int:
    """Encode a number tuple as sum_i entries[i] * (n+1)^i (little endian)."""
    entries = tuple(entries)
    if not entries:
        raise DomainError("number tuples are non-empty")
    value = 0
    weight = 1
    for e in entries:
        if not (0 <= e <= n):
            raise DomainError(f"number {e} outside [0, {n}]")
        value += e * weight
        weight *= n + 1
    return value


def num_decode(value: int, width: int, n: int) -> tuple[int, ...]:
    """Inverse of num_encode: the unique base-(n+1) digit vector of length width."""
    if width < 1:
        raise DomainError("width must be positive")
    if value < 0 or value >= (n + 1) ** width:
        raise DomainError(f"value {value} does not fit in {width} digits base {n + 1}")
    digits = []
    for _ in range(width):
        value, digit = divmod(value, n + 1)
        digits.append(digit)
    return tuple(digits)


def quotient_by_equivalence(classes, edges):
    """Quotient a tuple domain by a given partition.

    `classes` is an iterable of iterables forming a partition; `edges`
    a set of pairs of members.  Returns (representatives, quotient
    edges, member -> representative map).  Representatives are the
    lexicographically minimal members, so the result is deterministic.
    """
    rep_of = {}
    reps = []
    for cls in classes:
        members = sorted(cls)
        if not members:
            raise DomainError("empty class in partition")
        rep = members[0]
        reps.append(rep)
        for m in members:
            if m in rep_of:
                raise DomainError(f"element {m!r} occurs in two classes")
            rep_of[m] = rep
    qedges = set()
    for a, b in edges:
        if a not in rep_of or b not in rep_of:
            raise DomainError(f"edge endpoint {(a, b)!r} not covered by the partition")
        qedges.add((rep_of[a], rep_of[b]))
    return reps, qedges, rep_of


GRAPH_VOCAB = Vocabulary((("E", 2),))

CIRCUIT_VOCAB = Vocabulary(
    (("E", 2), ("Pand", 1), ("Por", 1), ("Pnot", 1), ("P0", 1), ("P1", 1))
)


def generate_layered_graph(n: int) -> Structure:
    """Two towers of n layers with n vertices each, consecutive layers
    fully joined.  Vertex numbering is layer-major: tower j in {0,1},
    layer i, slot t -> j*n^2 + i*n + t."""
    if n < 1:
        raise DomainError("need n >= 1")

    def vid(j, i, t):
        return j * n * n + i * n + t

    edges = set()
    for j in range(2):
        for i in range(n - 1):
            for a in range(n):
                for b in range(n):
                    edges.add((vid(j, i, a), vid(j, i + 1, b)))
    return Structure(GRAPH_VOCAB, 2 * n * n, {"E": edges})


def generate_random_tree(n: int, seed: int = 0) -> Structure:
    """Directed tree via uniform random attachment; E is parent -> child."""
    if n < 1:
        raise DomainError("need n >= 1")
    rng = random.Random(seed)
    edges = set()
    for child in range(1, n):
        edges.add((rng.randrange(child), child))
    return Structure(GRAPH_VOCAB, n, {"E": edges})


def generate_random_interval_graph(n: int, seed: int = 0) -> Structure:
    """Intersection graph of n random closed intervals (symmetric E)."""
    if n < 1:
        raise DomainError("need n >= 1")
    rng = random.Random(seed)
    spans = []
    for _ in range(n):
        a = rng.randint(1, 2 * n)
        b = rng.randint(1, 2 * n)
        spans.append((min(a, b), max(a, b)))
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if spans[u][0] <= spans[v][1] and spans[v][0] <= spans[u][1]:
                edges.add((u, v))
                edges.add((v, u))
    return Structure(GRAPH_VOCAB, n, {"E": edges})


def generate_random_circuit(n: int, seed: int = 0) -> Structure:
    """Random tree-shaped Boolean circuit with exactly n gates, fan-in <= 3.

    Gate 0 is the output and every other gate hangs below a random
    earlier gate with fewer than three children.  Gates with children
    are and/or, or not when they have one child; leaves are the
    constants 0/1.  Tree shape keeps the in-degree path product at 1,
    which every evaluator in this package accepts.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    rng = random.Random(seed)
    children = [[] for _ in range(n)]
    open_gates = [0]  # gates that can take another child
    for gate in range(1, n):
        parent = rng.choice(open_gates)
        children[parent].append(gate)
        if len(children[parent]) == 3:
            open_gates.remove(parent)
        open_gates.append(gate)
    rels = {"E": set(), "Pand": set(), "Por": set(), "Pnot": set(), "P0": set(), "P1": set()}
    for gate, kids in enumerate(children):
        if not kids:
            kind = rng.choice(["P0", "P1"])
        elif len(kids) == 1:
            kind = rng.choice(["Pand", "Por", "Pnot"])
        else:
            kind = rng.choice(["Pand", "Por"])
        rels[kind].add((gate,))
        rels["E"].update((gate, kid) for kid in kids)
    return Structure(CIRCUIT_VOCAB, n, rels)
