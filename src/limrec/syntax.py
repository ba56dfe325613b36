"""Formula language: AST, concrete grammar, and the dtc rewrite.

The AST covers counting first-order logic plus the two limited-recursion
operators and the dtc abbreviation.  Number variables are written with a
`#` prefix in the concrete syntax; the sort of every variable is fixed by
its spelling, so no declarations are needed.  Implication, biimplication
and the numeric literals 0/1 are surface sugar: the parser eliminates all
of them, and the evaluator only ever sees not/and/or.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .errors import FormulaError, ParseError

STRUCT = "structure"
NUMBER = "number"


@dataclass(frozen=True)
class Var:
    name: str
    sort: str

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
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


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
# binder fields scoped over it.  A field holds a Var or a tuple of Vars.
# Subformulas are listed in field order, which fixes the order of every walk.
_BINDERS = {
    Atom: (("args",), ()),
    EqVar: (("left", "right"), ()),
    LeqNum: (("left", "right"), ()),
    Not: ((), (("sub", ()),)),
    And: ((), (("left", ()), ("right", ()))),
    Or: ((), (("left", ()), ("right", ()))),
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


def _outer_variables(f: Formula) -> tuple[Var, ...]:
    """Variables free in f's subformulas that f itself does not bind, sorted.
    For lrec and lreceq these are the outer assignment the recursion graph
    depends on."""
    out: set[Var] = set()
    for name, binders in _rule(f)[1]:
        out |= free_variables(getattr(f, name)) - set(_vars(f, binders))
    return tuple(sorted(out, key=lambda v: (v.name, v.sort)))


@lru_cache(maxsize=None)
def free_variables(f: Formula) -> frozenset[Var]:
    return frozenset(_outer_variables(f) + _vars(f, _rule(f)[0]))


def _contains_dtc(f: Formula) -> bool:
    return isinstance(f, Dtc) or any(_contains_dtc(getattr(f, name)) for name, _ in _rule(f)[1])


def validate(f: Formula) -> None:
    """Raise FormulaError on sort clashes or incompatible tuples."""
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
    elif isinstance(f, Not):
        validate(f.sub)
    elif isinstance(f, (And, Or)):
        validate(f.left)
        validate(f.right)
    elif isinstance(f, (Exists, Forall)):
        validate(f.sub)
    elif isinstance(f, Count):
        if not f.pvars or any(p.sort != NUMBER for p in f.pvars):
            raise FormulaError("count result tuple must be non-empty number variables")
        validate(f.sub)
    elif isinstance(f, (Lrec, LrecEq)):
        if not (compatible(f.u, f.v) and compatible(f.u, f.w)):
            raise FormulaError("lrec vertex tuples must be pairwise compatible")
        if not f.u:
            raise FormulaError("lrec vertex tuples must be non-empty")
        for tup, what in ((f.p, "p"), (f.r, "r")):
            if not tup or any(x.sort != NUMBER for x in tup):
                raise FormulaError(f"lrec {what}-tuple must be non-empty number variables")
        if isinstance(f, LrecEq):
            validate(f.phi_eq)
        validate(f.phi_edge)
        validate(f.phi_label)
    elif isinstance(f, Dtc):
        for tup in (f.v, f.s, f.t):
            if not compatible(f.u, tup):
                raise FormulaError("dtc tuples must be pairwise compatible")
        if not f.u:
            raise FormulaError("dtc tuples must be non-empty")
        validate(f.sub)
    else:
        raise FormulaError(f"unknown formula node {type(f).__name__}")


def _all_names(f: Formula) -> set[str]:
    names: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        uses, subs = _rule(g)
        names.update(v.name for v in _vars(g, uses))
        for name, binders in subs:
            names.update(v.name for v in _vars(g, binders))
            stack.append(getattr(g, name))
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
    uses, subs = _rule(f)
    changes = {}
    for name in uses:
        value = getattr(f, name)
        if isinstance(value, Var):
            changes[name] = mapping.get(value, value)
        else:
            changes[name] = tuple(mapping.get(v, v) for v in value)
    for name, binders in subs:
        bound = set(_vars(f, binders))
        inner = {k: v for k, v in mapping.items() if k not in bound}
        changes[name] = substitute(getattr(f, name), inner)
    return replace(f, **changes)


def and_all(parts) -> Formula:
    parts = list(parts)
    if not parts:
        raise FormulaError("empty conjunction")
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


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
    |u|; introduced implications are spelled with not/or.
    """
    fresh = _Fresh(f)

    def walk(g: Formula) -> Formula:
        if isinstance(g, Dtc):
            psi = walk(g.sub)
            vprime = fresh.tuple_like(g.v, "_w")
            p = tuple(fresh.var(NUMBER, "_p") for _ in g.u)
            r = tuple(fresh.var(NUMBER, "_r") for _ in g.u)
            psi_prime = substitute(psi, dict(zip(g.v, vprime)))
            phi_edge = And(psi, _forall_all(vprime, Or(Not(psi_prime), eq_tuple(vprime, g.v))))
            p_zero = and_all(is_zero(pi, fresh) for pi in p)
            phi_label = Or(eq_tuple(g.v, g.s), And(Not(eq_tuple(g.v, g.s)), Not(p_zero)))
            node = Lrec(g.v, g.u, p, phi_edge, phi_label, g.t, r)
            out: Formula = node
            for ri in reversed(r):
                out = Exists(ri, out)
            return out
        return replace(g, **{name: walk(getattr(g, name)) for name, _ in _rule(g)[1]})

    return walk(f)


def _forall_all(vars_, body):
    out = body
    for v in reversed(vars_):
        out = Forall(v, out)
    return out


# ---------------------------------------------------------------------------
# Concrete syntax


_SYMBOLS = ("<->", "->", "<=", "=", "(", ")", "[", "]", ",", ";", ":", "#")
_KEYWORDS = {"not", "and", "or", "exists", "forall", "count", "lrec", "lreceq", "dtc"}


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        matched = False
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(_Token(sym, sym, line, col))
                i += len(sym)
                col += len(sym)
                matched = True
                break
        if matched:
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word if word in _KEYWORDS else "ident"
            toks.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(_Token("numlit", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("eof", "", line, col))
    return toks


class _Lit:
    """Placeholder for a numeric literal inside an atomic formula; removed
    before the parser returns."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.pos = 0
        self.fresh_counter = 0

    def peek(self, ahead=0) -> _Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

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

    # precedence: <-> < -> < or < and < not/quantifier < atom
    def parse_formula(self) -> Formula:
        left = self.parse_imp()
        while self.peek().kind == "<->":
            self.next()
            right = self.parse_imp()
            left = And(Or(Not(left), right), Or(Not(right), left))
        return left

    def parse_imp(self) -> Formula:
        left = self.parse_or()
        if self.peek().kind == "->":
            self.next()
            right = self.parse_imp()
            return Or(Not(left), right)
        return left

    def parse_or(self) -> Formula:
        left = self.parse_and()
        while self.peek().kind == "or":
            self.next()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self) -> Formula:
        left = self.parse_prefix()
        while self.peek().kind == "and":
            self.next()
            left = And(left, self.parse_prefix())
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

    def parse_term(self):
        tok = self.peek()
        if tok.kind == "numlit":
            self.next()
            if tok.text not in ("0", "1"):
                raise ParseError("only the constants 0 and 1 are allowed", tok.line, tok.col)
            return _Lit(int(tok.text))
        return self.parse_var()

    def parse_term_tuple(self) -> tuple:
        if self.peek().kind == "(":
            self.next()
            items = [self.parse_term()]
            while self.peek().kind == ",":
                self.next()
                items.append(self.parse_term())
            self.expect(")")
            return tuple(items)
        return (self.parse_term(),)

    def parse_var_tuple(self) -> tuple[Var, ...]:
        tok = self.peek()
        tup = self.parse_term_tuple()
        for item in tup:
            if isinstance(item, _Lit):
                raise ParseError("constants are not allowed in binder tuples", tok.line, tok.col)
        return tup

    def parse_atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            f = self.parse_formula()
            self.expect(")")
            return f
        if tok.kind == "[":
            return self.parse_bracket()
        if tok.kind == "count":
            self.next()
            self.expect("(")
            uvars = [self.parse_var()]
            while self.peek().kind == ",":
                self.next()
                uvars.append(self.parse_var())
            self.expect(";")
            sub = self.parse_formula()
            self.expect(")")
            self.expect("=")
            ptup = self.parse_term_tuple()
            return self.finish_atom(
                lambda terms: Count(tuple(uvars), sub, terms[0]), [ptup], tok, number_only=True
            )
        if tok.kind == "ident" and self.peek(1).kind == "(":
            rel = self.next().text
            self.expect("(")
            args = [self.parse_var()]
            while self.peek().kind == ",":
                self.next()
                args.append(self.parse_var())
            self.expect(")")
            return Atom(rel, tuple(args))
        # comparison between terms
        left = self.parse_term()
        op = self.next()
        if op.kind not in ("=", "<="):
            raise ParseError(f"expected '=' or '<=', found {op.text!r}", op.line, op.col)
        right = self.parse_term()

        def build(terms):
            (lhs,), (rhs,) = terms
            if op.kind == "<=":
                return LeqNum(lhs, rhs)
            return EqVar(lhs, rhs)

        number_only = op.kind == "<=" or any(
            isinstance(t, _Lit) or t.sort == NUMBER for t in (left, right) if True
        )
        return self.finish_atom(build, [(left,), (right,)], tok, number_only=number_only)

    def parse_bracket(self) -> Formula:
        open_tok = self.expect("[")
        kind = self.next()
        if kind.kind not in ("lrec", "lreceq", "dtc"):
            raise ParseError(f"expected lrec, lreceq or dtc, found {kind.text!r}", kind.line, kind.col)
        u = self.parse_var_tuple()
        self.expect(",")
        v = self.parse_var_tuple()
        p = None
        if kind.kind in ("lrec", "lreceq"):
            self.expect(",")
            p = self.parse_var_tuple()
        self.expect(":")
        first = self.parse_formula()
        second = third = None
        if kind.kind in ("lrec", "lreceq"):
            self.expect(";")
            second = self.parse_formula()
        if kind.kind == "lreceq":
            self.expect(";")
            third = self.parse_formula()
        self.expect("]")
        self.expect("(")
        wtup = self.parse_term_tuple()
        self.expect(",")
        rtup = self.parse_term_tuple()
        self.expect(")")

        if kind.kind == "lrec":
            build = lambda terms: Lrec(u, v, p, first, second, terms[0], terms[1])
        elif kind.kind == "lreceq":
            build = lambda terms: LrecEq(u, v, p, first, second, third, terms[0], terms[1])
        else:
            build = lambda terms: Dtc(u, v, first, terms[0], terms[1])
        return self.finish_atom(build, [wtup, rtup], open_tok, number_only=None)

    def finish_atom(self, build, term_tuples, tok, number_only):
        """Replace literal terms with fresh forced number variables and wrap
        the built atom in the forcing existentials."""
        forcings = []
        clean = []
        for tup in term_tuples:
            row = []
            for term in tup:
                if isinstance(term, _Lit):
                    z = Var(f"_c{self.fresh_counter}", NUMBER)
                    self.fresh_counter += 1
                    q = Var(f"_c{self.fresh_counter}", NUMBER)
                    self.fresh_counter += 1
                    if term.value == 0:
                        force = Forall(q, LeqNum(z, q))
                    else:
                        q2 = Var(f"_c{self.fresh_counter}", NUMBER)
                        self.fresh_counter += 1
                        # z is the least non-zero number, i.e. 1
                        force = And(
                            Not(Forall(q, LeqNum(z, q))),
                            Forall(q, Or(Forall(q2, LeqNum(q, q2)), LeqNum(z, q))),
                        )
                    forcings.append((z, force))
                    row.append(z)
                else:
                    if number_only and term.sort != NUMBER:
                        raise ParseError(
                            f"expected a number variable, found {term!r}", tok.line, tok.col
                        )
                    row.append(term)
            clean.append(tuple(row))
        out = build(clean)
        for z, force in reversed(forcings):
            out = Exists(z, And(force, out))
        return out


def parse_formula(text: str) -> Formula:
    """Parse the concrete syntax; returns a validated AST."""
    parser = _Parser(text)
    f = parser.parse_formula()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input starting at {tok.text!r}", tok.line, tok.col)
    try:
        validate(f)
    except FormulaError as exc:
        raise ParseError(str(exc)) from None
    return f


def _tuple_str(tup: tuple[Var, ...]) -> str:
    if len(tup) == 1:
        return repr(tup[0])
    return "(" + ", ".join(repr(v) for v in tup) + ")"


def pretty(f: Formula) -> str:
    """Canonical text for an AST; parse(pretty(f)) == f."""
    return _pretty(f, 0)


_PREC = {Or: 1, And: 2}


def _pretty(f: Formula, parent_prec: int, right_child: bool = False) -> str:
    if isinstance(f, Atom):
        return f"{f.rel}(" + ", ".join(repr(a) for a in f.args) + ")"
    if isinstance(f, EqVar):
        return f"{f.left!r} = {f.right!r}"
    if isinstance(f, LeqNum):
        return f"{f.left!r} <= {f.right!r}"
    if isinstance(f, Count):
        body = _pretty(f.sub, 0)
        return (
            "count(" + ", ".join(repr(v) for v in f.uvars) + " ; " + body + ") = "
            + _tuple_str(f.pvars)
        )
    if isinstance(f, Lrec):
        return (
            "[lrec " + ", ".join(_tuple_str(t) for t in (f.u, f.v, f.p))
            + " : " + _pretty(f.phi_edge, 0) + " ; " + _pretty(f.phi_label, 0)
            + "](" + _tuple_str(f.w) + ", " + _tuple_str(f.r) + ")"
        )
    if isinstance(f, LrecEq):
        return (
            "[lreceq " + ", ".join(_tuple_str(t) for t in (f.u, f.v, f.p))
            + " : " + _pretty(f.phi_eq, 0) + " ; " + _pretty(f.phi_edge, 0)
            + " ; " + _pretty(f.phi_label, 0)
            + "](" + _tuple_str(f.w) + ", " + _tuple_str(f.r) + ")"
        )
    if isinstance(f, Dtc):
        return (
            "[dtc " + ", ".join(_tuple_str(t) for t in (f.u, f.v))
            + " : " + _pretty(f.sub, 0)
            + "](" + _tuple_str(f.s) + ", " + _tuple_str(f.t) + ")"
        )
    if isinstance(f, Not):
        return "not " + _pretty_tight(f.sub)
    if isinstance(f, (Exists, Forall)):
        kw = "exists" if isinstance(f, Exists) else "forall"
        return f"{kw} {f.var!r} " + _pretty_tight(f.sub)
    if isinstance(f, (And, Or)):
        prec = _PREC[type(f)]
        op = " and " if isinstance(f, And) else " or "
        text = (
            _pretty(f.left, prec, right_child=False)
            + op
            + _pretty(f.right, prec, right_child=True)
        )
        if prec < parent_prec or (prec == parent_prec and right_child):
            return "(" + text + ")"
        return text
    raise FormulaError(f"unknown formula node {type(f).__name__}")


def _pretty_tight(f: Formula) -> str:
    """Print a quantifier/negation body: bare when it binds at least as
    tightly, parenthesized otherwise."""
    if isinstance(f, (And, Or)):
        return "(" + _pretty(f, 0) + ")"
    return _pretty(f, 0)
