"""Formula language: AST, concrete grammar, and the dtc rewrite.

The AST covers counting first-order logic plus the two limited-recursion
operators and the dtc abbreviation.  Number variables are written with a
`#` prefix in the concrete syntax; the sort of every variable is fixed by
its spelling, so no declarations are needed.  Implication, biimplication
and the numeric literals 0/1 are surface sugar: the parser eliminates all
of them, and the evaluator only ever sees not/and/or.
"""

from __future__ import annotations

import re
import threading
import weakref
from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat

from .errors import FormulaError, ParseError

STRUCT = "structure"
NUMBER = "number"


# (name, sort) -> the live Var; read only when a Var is constructed, under
# the lock, so two threads cannot make two Vars for one pair
_INTERNED = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()


@dataclass(frozen=True, eq=False, init=False)
class Var:
    """A variable, interned: `Var(name, sort)` returns the one live
    instance for that pair, so equality and hashing are object identity
    and run in C.  Copies and pickles come back as that instance too."""

    name: str
    sort: str

    def __new__(cls, name: str, sort: str):
        with _INTERN_LOCK:
            var = _INTERNED.get((name, sort))
            if var is None:
                var = super().__new__(cls)
                object.__setattr__(var, "name", name)
                object.__setattr__(var, "sort", sort)
                _INTERNED[name, sort] = var
        return var

    def __reduce__(self):
        return Var, (self.name, self.sort)

    def __repr__(self):
        return ("#" if self.sort == NUMBER else "") + self.name


def svar(name: str) -> Var:
    return Var(name, STRUCT)


def nvar(name: str) -> Var:
    return Var(name, NUMBER)


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Atom(Formula):
    rel: str
    args: tuple[Var, ...]


@dataclass(frozen=True)
class EqVar(Formula):
    left: Var
    right: Var


@dataclass(frozen=True)
class LeqNum(Formula):
    left: Var
    right: Var


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    parts: tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    parts: tuple[Formula, ...]


@dataclass(frozen=True)
class Exists(Formula):
    var: Var
    sub: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: Var
    sub: Formula


@dataclass(frozen=True)
class Count(Formula):
    uvars: tuple[Var, ...]
    sub: Formula
    pvars: tuple[Var, ...]


@dataclass(frozen=True)
class Lrec(Formula):
    u: tuple[Var, ...]
    v: tuple[Var, ...]
    p: tuple[Var, ...]
    phi_edge: Formula
    phi_label: Formula
    w: tuple[Var, ...]
    r: tuple[Var, ...]


@dataclass(frozen=True)
class LrecEq(Formula):
    u: tuple[Var, ...]
    v: tuple[Var, ...]
    p: tuple[Var, ...]
    phi_eq: Formula
    phi_edge: Formula
    phi_label: Formula
    w: tuple[Var, ...]
    r: tuple[Var, ...]


@dataclass(frozen=True)
class Dtc(Formula):
    u: tuple[Var, ...]
    v: tuple[Var, ...]
    sub: Formula
    s: tuple[Var, ...]
    t: tuple[Var, ...]


def compatible(a: tuple[Var, ...], b: tuple[Var, ...]) -> bool:
    return len(a) == len(b) and all(x.sort == y.sort for x, y in zip(a, b))


# The binding rule of every node type, stated once: the fields holding the
# variables the node uses itself, then each subformula field with the
# binder fields scoped over it.  A variable field holds a Var or a tuple of
# Vars; a subformula field holds a Formula or, for and/or, a tuple of them.
# Subformulas are listed in field order, which fixes the order of every walk.
_BINDERS = {
    Atom: (("args",), ()),
    EqVar: (("left", "right"), ()),
    LeqNum: (("left", "right"), ()),
    Not: ((), (("sub", ()),)),
    And: ((), (("parts", ()),)),
    Or: ((), (("parts", ()),)),
    Exists: ((), (("sub", ("var",)),)),
    Forall: ((), (("sub", ("var",)),)),
    Count: (("pvars",), (("sub", ("uvars",)),)),
    Lrec: (("w", "r"), (("phi_edge", ("u", "v")), ("phi_label", ("u", "p")))),
    LrecEq: (
        ("w", "r"),
        (("phi_eq", ("u", "v")), ("phi_edge", ("u", "v")), ("phi_label", ("u", "p"))),
    ),
    Dtc: (("s", "t"), (("sub", ("u", "v")),)),
}


def _rule(f: Formula):
    try:
        return _BINDERS[type(f)]
    except KeyError:
        raise FormulaError(f"unknown formula node {type(f).__name__}") from None


def _vars(f: Formula, fields) -> tuple[Var, ...]:
    out: tuple[Var, ...] = ()
    for name in fields:
        value = getattr(f, name)
        out += (value,) if isinstance(value, Var) else value
    return out


def _children(f: Formula):
    """(subformula, binder fields) for each subformula of f in walk order;
    a tuple field gives one pair per part."""
    for name, binders in _rule(f)[1]:
        value = getattr(f, name)
        if isinstance(value, tuple):
            for g in value:
                yield g, binders
        else:
            yield value, binders


def _rebuild(f: Formula, fn, **changes) -> Formula:
    """f with each subformula g replaced by fn(g, binder fields) and the
    fields in `changes` replaced by their values.  (`map` keeps the walk
    at one Python frame per level besides fn's own.)"""
    for name, binders in _rule(f)[1]:
        value = getattr(f, name)
        if isinstance(value, tuple):
            changes[name] = tuple(map(fn, value, repeat(binders)))
        else:
            changes[name] = fn(value, binders)
    return replace(f, **changes) if changes else f


def _outer_variables(f: Formula) -> tuple[Var, ...]:
    """Variables free in f's subformulas that f itself does not bind, sorted.
    For lrec and lreceq these are the outer assignment the recursion graph
    depends on."""
    out: set[Var] = set()
    for g, binders in _children(f):
        out |= free_variables(g) - set(_vars(f, binders))
    return tuple(sorted(out, key=lambda v: (v.name, v.sort)))


# id(formula) -> (a weak reference to the formula, its free variables).
# Keyed by identity, so a lookup hashes no formula; an entry leaves when
# its formula dies, so the cache keeps no formula, and through it no
# variable, alive.
_FREE = {}


def free_variables(f: Formula) -> frozenset[Var]:
    key = id(f)
    entry = _FREE.get(key)
    if entry is not None and entry[0]() is f:
        return entry[1]
    free = frozenset(_outer_variables(f) + _vars(f, _rule(f)[0]))
    _FREE[key] = (weakref.ref(f, lambda _: _FREE.pop(key, None)), free)
    return free


def _contains_dtc(f: Formula) -> bool:
    return isinstance(f, Dtc) or any(_contains_dtc(g) for g, _ in _children(f))


def validate(f: Formula) -> None:
    """Raise FormulaError on sort clashes, incompatible tuples or an
    and/or with fewer than two parts."""
    if isinstance(f, Atom):
        for a in f.args:
            if a.sort != STRUCT:
                raise FormulaError(f"relation argument {a!r} must be a structure variable")
    elif isinstance(f, EqVar):
        if f.left.sort != f.right.sort:
            raise FormulaError(f"sort clash in {f.left!r} = {f.right!r}")
    elif isinstance(f, LeqNum):
        if f.left.sort != NUMBER or f.right.sort != NUMBER:
            raise FormulaError("<= compares number variables only")
    elif isinstance(f, (And, Or)):
        if len(f.parts) < 2:
            raise FormulaError(f"{type(f).__name__.lower()} needs at least two parts")
    elif isinstance(f, Count):
        if not f.pvars or any(p.sort != NUMBER for p in f.pvars):
            raise FormulaError("count result tuple must be non-empty number variables")
    elif isinstance(f, (Lrec, LrecEq)):
        if not (compatible(f.u, f.v) and compatible(f.u, f.w)):
            raise FormulaError("lrec vertex tuples must be pairwise compatible")
        if not f.u:
            raise FormulaError("lrec vertex tuples must be non-empty")
        for tup, what in ((f.p, "p"), (f.r, "r")):
            if not tup or any(x.sort != NUMBER for x in tup):
                raise FormulaError(f"lrec {what}-tuple must be non-empty number variables")
    elif isinstance(f, Dtc):
        for tup in (f.v, f.s, f.t):
            if not compatible(f.u, tup):
                raise FormulaError("dtc tuples must be pairwise compatible")
        if not f.u:
            raise FormulaError("dtc tuples must be non-empty")
    for g, _ in _children(f):
        validate(g)


def _all_names(f: Formula) -> set[str]:
    names: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        names.update(v.name for v in _vars(g, _rule(g)[0]))
        for sub, binders in _children(g):
            names.update(v.name for v in _vars(g, binders))
            stack.append(sub)
    return names


class _Fresh:
    """Generates identifiers unused in a formula."""

    def __init__(self, *formulas):
        self.used = set()
        for f in formulas:
            self.used |= _all_names(f)
        self.counter = 0

    def var(self, sort, hint="v"):
        while True:
            name = f"{hint}{self.counter}"
            self.counter += 1
            if name not in self.used:
                self.used.add(name)
                return Var(name, sort)

    def tuple_like(self, model: tuple[Var, ...], hint) -> tuple[Var, ...]:
        return tuple(self.var(v.sort, hint) for v in model)


def substitute(f: Formula, mapping: dict[Var, Var]) -> Formula:
    """Replace free occurrences of variables.  Binders shadow entries;
    replacement targets are assumed not to be captured (use fresh names)."""
    if not mapping:
        return f
    changes = {}
    for name in _rule(f)[0]:
        value = getattr(f, name)
        if isinstance(value, Var):
            changes[name] = mapping.get(value, value)
        else:
            changes[name] = tuple(mapping.get(v, v) for v in value)

    def inner(g, binders):
        bound = set(_vars(f, binders))
        return substitute(g, {k: v for k, v in mapping.items() if k not in bound})

    return _rebuild(f, inner, **changes)


def and_all(parts) -> Formula:
    parts = tuple(parts)
    if not parts:
        raise FormulaError("empty conjunction")
    return parts[0] if len(parts) == 1 else And(parts)


def eq_tuple(a: tuple[Var, ...], b: tuple[Var, ...]) -> Formula:
    return and_all(EqVar(x, y) for x, y in zip(a, b))


def is_zero(p: Var, fresh: _Fresh) -> Formula:
    q = fresh.var(NUMBER, "_q")
    return Forall(q, LeqNum(p, q))


def expand_dtc(f: Formula) -> Formula:
    """Rewrite every dtc node into its defining lrec formula.

    [dtc u,v psi](s,t) becomes  exists r [lrec v,u,p : phiE ; phiC](t, r)
    with phiE(v,u) keeping only reversed deterministic edges of psi and
    phiC(v,p) = (v=s or (not v=s and not p=0)).  Fresh p,r have length
    |u|; introduced implications are spelled with not/or.  phiC binds v,
    so a v that shares a variable with s is renamed first.
    """
    fresh = _Fresh(f)

    def walk(g: Formula, _binders=()) -> Formula:
        if isinstance(g, Dtc):
            psi, v = walk(g.sub), g.v
            if not set(v).isdisjoint(g.s):
                v = fresh.tuple_like(g.v, "_v")
                psi = substitute(psi, dict(zip(g.v, v)))
            vprime = fresh.tuple_like(v, "_w")
            p = tuple(fresh.var(NUMBER, "_p") for _ in g.u)
            r = tuple(fresh.var(NUMBER, "_r") for _ in g.u)
            psi_prime = substitute(psi, dict(zip(v, vprime)))
            phi_edge = And((psi, _forall_all(vprime, Or((Not(psi_prime), eq_tuple(vprime, v))))))
            p_zero = and_all(is_zero(pi, fresh) for pi in p)
            phi_label = Or((eq_tuple(v, g.s), And((Not(eq_tuple(v, g.s)), Not(p_zero)))))
            node = Lrec(v, g.u, p, phi_edge, phi_label, g.t, r)
            out: Formula = node
            for ri in reversed(r):
                out = Exists(ri, out)
            return out
        return _rebuild(g, walk)

    return walk(f)


def _forall_all(vars_, body):
    out = body
    for v in reversed(vars_):
        out = Forall(v, out)
    return out


# ---------------------------------------------------------------------------
# Concrete syntax


def _bracket(cls):
    """(cls, binder fields, formula fields, argument fields) of a bracket
    operator: its text is `[kw binder-tuples : formulas](argument-tuples)`,
    with the subformulas' binder fields in order of first use and the
    node's own variable fields as arguments."""
    own, subs = _BINDERS[cls]
    binders = tuple(dict.fromkeys(b for _, fields in subs for b in fields))
    return cls, binders, tuple(name for name, _ in subs), own


_BRACKETS = {cls.__name__.lower(): _bracket(cls) for cls in (Lrec, LrecEq, Dtc)}
_KEYWORDS = {"not", "and", "or", "exists", "forall", "count", *_BRACKETS}
# one alternative per lexeme class, tried in order: a newline, a run of other
# whitespace, a symbol (longest first), a run of word characters (`\w` is
# exactly str.isalnum() or "_", `\s` exactly str.isspace()), anything else
_LEXEME = re.compile(r"(\n)|([^\S\n]+)|(<->|->|<=|[=()\[\],;:#])|(\w+)|(.)")


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    toks = []
    line, line_start = 1, 0
    for m in _LEXEME.finditer(text):
        group, lexeme = m.lastindex, m.group()
        col = m.start() - line_start + 1
        if group == 1:
            line, line_start = line + 1, m.end()
        elif group == 3:
            toks.append(_Token(lexeme, lexeme, line, col))
        elif group == 4:
            # a word is a numeral (its str.isdigit() prefix), an identifier
            # (starting with a letter or "_"), or a numeral then an identifier
            j = 0
            while j < len(lexeme) and lexeme[j].isdigit():
                j += 1
            if j:
                toks.append(_Token("numlit", lexeme[:j], line, col))
            if j < len(lexeme):
                word = lexeme[j:]
                if not (word[0].isalpha() or word[0] == "_"):
                    raise ParseError(f"unexpected character {word[0]!r}", line, col + j)
                toks.append(_Token(word if word in _KEYWORDS else "ident", word, line, col + j))
        elif group == 5:
            raise ParseError(f"unexpected character {lexeme!r}", line, col)
    toks.append(_Token("eof", "", line, len(text) - line_start + 1))
    return toks


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.pos = 0
        # a literal's name avoids every identifier of the text
        self.fresh = _Fresh()
        self.fresh.used.update(tok.text for tok in self.toks if tok.kind == "ident")
        # (variable, forcing formulas) of each literal read in the open atoms
        self.forcings = []

    def peek(self) -> _Token:
        # `next` never moves past the closing eof token
        return self.toks[self.pos]

    def next(self) -> _Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def error(self, msg):
        tok = self.peek()
        raise ParseError(msg, tok.line, tok.col)

    def parse_list(self, item, sep, count=None) -> list:
        """item {sep item}; exactly `count` items when it is given."""
        items = [item()]
        while len(items) != count and (count or self.peek().kind == sep):
            self.expect(sep)
            items.append(item())
        return items

    def parse_tuple(self, item) -> tuple:
        if self.peek().kind == "(":
            self.next()
            items = self.parse_list(item, ",")
            self.expect(")")
            return tuple(items)
        return (item(),)

    # precedence: <-> < -> < or < and < not/quantifier < atom
    def parse_formula(self) -> Formula:
        left = self.parse_imp()
        while self.peek().kind == "<->":
            self.next()
            right = self.parse_imp()
            left = And((Or((Not(left), right)), Or((Not(right), left))))
        return left

    def parse_imp(self) -> Formula:
        # an or-list of and-lists, the inner list read through a partial:
        # it costs no Python frame, and the frames per nesting level bound
        # the depth of parentheses that parses
        disjuncts = self.parse_list(partial(self.parse_list, self.parse_prefix, "and"), "or")
        left = _junction(Or, [_junction(And, parts) for parts in disjuncts])
        if self.peek().kind == "->":
            self.next()
            right = self.parse_imp()
            return Or((Not(left), right))
        return left

    def parse_prefix(self) -> Formula:
        tok = self.peek()
        if tok.kind == "not":
            self.next()
            return Not(self.parse_prefix())
        if tok.kind in ("exists", "forall"):
            self.next()
            var = self.parse_var()
            body = self.parse_prefix()
            return Exists(var, body) if tok.kind == "exists" else Forall(var, body)
        return self.parse_atom()

    def parse_var(self) -> Var:
        tok = self.peek()
        if tok.kind == "#":
            self.next()
            name = self.expect("ident").text
            return Var(name, NUMBER)
        if tok.kind == "ident":
            self.next()
            return Var(tok.text, STRUCT)
        self.error(f"expected a variable, found {tok.text!r}")

    def parse_term(self) -> Var:
        """A variable, or a literal read as a fresh number variable whose
        forcing formulas wait for the enclosing atom to close."""
        tok = self.peek()
        if tok.kind != "numlit":
            return self.parse_var()
        self.next()
        if tok.text not in ("0", "1"):
            raise ParseError("only the constants 0 and 1 are allowed", tok.line, tok.col)
        z, q = self.fresh.var(NUMBER, "_c"), self.fresh.var(NUMBER, "_c")
        force = (Forall(q, LeqNum(z, q)),)
        if tok.text == "1":
            q2 = self.fresh.var(NUMBER, "_c")
            # z is the least non-zero number, i.e. 1
            force = (Not(force[0]), Forall(q, Or((Forall(q2, LeqNum(q, q2)), LeqNum(z, q)))))
        self.forcings.append((z, force))
        return z

    def parse_atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            f = self.parse_formula()
            self.expect(")")
            return f
        if tok.kind == "ident" and self.toks[self.pos + 1].kind == "(":
            rel = self.next().text
            self.expect("(")
            args = self.parse_list(self.parse_var, ",")
            self.expect(")")
            return Atom(rel, tuple(args))
        mark = len(self.forcings)
        if tok.kind == "[":
            out = self.parse_bracket()
        elif tok.kind == "count":
            self.next()
            self.expect("(")
            uvars = self.parse_list(self.parse_var, ",")
            self.expect(";")
            sub = self.parse_formula()
            self.expect(")")
            self.expect("=")
            pvars = self.parse_tuple(self.parse_term)
            _require_numbers(pvars, tok)
            out = Count(tuple(uvars), sub, pvars)
        else:
            # comparison between terms
            left = self.parse_term()
            op = self.next()
            if op.kind not in ("=", "<="):
                raise ParseError(f"expected '=' or '<=', found {op.text!r}", op.line, op.col)
            right = self.parse_term()
            if op.kind == "<=" or NUMBER in (left.sort, right.sort):
                _require_numbers((left, right), tok)
            out = LeqNum(left, right) if op.kind == "<=" else EqVar(left, right)
        # the atom closes: wrap it in the forcing existentials of its literals
        for z, force in reversed(self.forcings[mark:]):
            out = Exists(z, And((*force, out)))
        del self.forcings[mark:]
        return out

    def parse_bracket(self) -> Formula:
        self.expect("[")
        kw = self.next()
        if kw.kind not in _BRACKETS:
            raise ParseError(f"expected lrec, lreceq or dtc, found {kw.text!r}", kw.line, kw.col)
        cls, binders, formulas, args = _BRACKETS[kw.kind]
        fields = self.parse_list(partial(self.parse_tuple, self.parse_var), ",", len(binders))
        self.expect(":")
        fields += self.parse_list(self.parse_formula, ";", len(formulas))
        self.expect("]")
        self.expect("(")
        fields += self.parse_list(partial(self.parse_tuple, self.parse_term), ",", len(args))
        self.expect(")")
        return cls(**dict(zip(binders + formulas + args, fields)))


def _junction(kind, parts):
    return parts[0] if len(parts) == 1 else kind(tuple(parts))


def _require_numbers(terms, tok):
    for term in terms:
        if term.sort != NUMBER:
            raise ParseError(f"expected a number variable, found {term!r}", tok.line, tok.col)


def parse_formula(text: str) -> Formula:
    """Parse the concrete syntax; returns a validated AST.  Formulas
    nested too deeply for the recursive walks raise ParseError; the free
    variables are computed (and cached) here so that every caller of
    free_variables, the CLI's bindings included, is covered."""
    parser = _Parser(text)
    try:
        f = parser.parse_formula()
        tok = parser.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input starting at {tok.text!r}", tok.line, tok.col)
        validate(f)
        free_variables(f)
    except FormulaError as exc:
        raise ParseError(str(exc)) from None
    except RecursionError:
        raise ParseError("formula nested too deeply") from None
    return f


def _tuple_str(tup: tuple[Var, ...]) -> str:
    if len(tup) == 1:
        return repr(tup[0])
    return "(" + ", ".join(repr(v) for v in tup) + ")"


_PREC = {Or: 1, And: 2}


def pretty(f: Formula) -> str:
    """Canonical text for an AST; parse(pretty(f)) == f."""
    if isinstance(f, Atom):
        return f"{f.rel}(" + ", ".join(repr(a) for a in f.args) + ")"
    if isinstance(f, EqVar):
        return f"{f.left!r} = {f.right!r}"
    if isinstance(f, LeqNum):
        return f"{f.left!r} <= {f.right!r}"
    if isinstance(f, Count):
        body = pretty(f.sub)
        return (
            "count(" + ", ".join(repr(v) for v in f.uvars) + " ; " + body + ") = "
            + _tuple_str(f.pvars)
        )
    kw = type(f).__name__.lower()
    if kw in _BRACKETS:
        _, binders, formulas, args = _BRACKETS[kw]
        return (
            f"[{kw} " + ", ".join(_tuple_str(getattr(f, b)) for b in binders)
            + " : " + " ; ".join(pretty(getattr(f, name)) for name in formulas)
            + "](" + ", ".join(_tuple_str(getattr(f, a)) for a in args) + ")"
        )
    if isinstance(f, Not):
        return "not " + _pretty_tight(f.sub)
    if isinstance(f, (Exists, Forall)):
        kw = "exists" if isinstance(f, Exists) else "forall"
        return f"{kw} {f.var!r} " + _pretty_tight(f.sub)
    if isinstance(f, (And, Or)):
        # a part of the same kind or a looser one is parenthesized
        prec = _PREC[type(f)]
        return (" and " if isinstance(f, And) else " or ").join(
            "(" + pretty(part) + ")" if _PREC.get(type(part), 3) <= prec else pretty(part)
            for part in f.parts
        )
    raise FormulaError(f"unknown formula node {type(f).__name__}")


def _pretty_tight(f: Formula) -> str:
    """Print a quantifier/negation body: bare when it binds at least as
    tightly, parenthesized otherwise."""
    if isinstance(f, (And, Or)):
        return "(" + pretty(f) + ")"
    return pretty(f)
