import copy
import gc
import itertools
import json
import pickle
import re
import sys
import threading
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limrec import syntax
from limrec.errors import FormulaError, ParseError
from limrec.evaluator import evaluate
from limrec.structures import GRAPH_VOCAB, Structure
from limrec.syntax import (
    And, Atom, Count, Dtc, EqVar, Exists, Forall, LeqNum, Lrec, LrecEq, Not,
    NUMBER, STRUCT, Or, Var, _all_names, _contains_dtc, _tokenize, expand_dtc,
    free_variables, nvar, parse_formula, pretty, substitute, svar, validate,
)

from .helpers import (
    reference_all_names, reference_expand_dtc, reference_free_variables,
    reference_substitute, reference_tokenize,
)


def test_parse_atom():
    f = parse_formula("E(x, y)")
    assert f == Atom("E", (svar("x"), svar("y")))


def _vars_of(f):
    """Every Var object in f's fields, in field order."""
    out = []
    for value in vars(f).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, Var):
                out.append(item)
            elif not isinstance(item, str):
                out.extend(_vars_of(item))
    return out


def test_variables_are_interned():
    x = svar("x")
    assert Var("x", STRUCT) is x and Var(name="x", sort=STRUCT) is x
    assert replace(x, name="y") is svar("y")
    assert nvar("x") is Var("x", NUMBER)
    assert svar("x") is not nvar("x") and svar("x") != nvar("x")
    f = parse_formula("exists #p [lrec x, y, #q : E(x, y) ; #q <= #q](z, #p) and P(x)")
    assert set(_vars_of(f)) == {svar("x"), svar("y"), svar("z"), nvar("p"), nvar("q")}
    assert all(v is Var(v.name, v.sort) for v in _vars_of(f))


def test_copies_and_pickles_of_variables_are_the_interned_ones():
    f = parse_formula("[dtc x, y : E(x, y)](s, t) and forall #p #p <= #q")
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert g == f and hash(g) == hash(f)
        assert all(a is b for a, b in zip(_vars_of(g), _vars_of(f), strict=True))
    x = svar("x")
    assert copy.copy(x) is x and copy.deepcopy(x) is x
    assert pickle.loads(pickle.dumps(x)) is x


def test_threads_interning_one_pair_get_one_variable():
    names = [f"race{i}" for i in range(10000)]
    seen = [None] * 8

    def intern(slot):
        seen[slot] = [Var(name, STRUCT) for name in names]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=intern, args=(slot,)) for slot in range(len(seen))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got in seen[1:]:
        assert all(a is b for a, b in zip(got, seen[0], strict=True))


def test_variables_hash_and_compare_in_c():
    assert Var.__hash__ is object.__hash__
    assert Var.__eq__ is object.__eq__


def test_unreferenced_variables_are_collected():
    ref = weakref.ref(Var("only_here", STRUCT))
    gc.collect()
    assert ref() is None
    assert Var("only_here", STRUCT).name == "only_here"


def test_parse_example_circuit_formula():
    text = (
        "exists #r1 exists #r2 ([lrec x, y, #p : E(x, y) ; "
        "(Pand(x) and count(y ; E(x, y)) = #p) or (Por(x) and not #p = 0) "
        "or (Pnot(x) and #p = 0) or P1(x)](z, (#r1, #r2)) "
        "and forall #r (#r <= #r1 and #r <= #r2))"
    )
    f = parse_formula(text)
    assert isinstance(f, Exists)
    assert isinstance(f.sub, Exists)
    body = f.sub.sub
    assert isinstance(body, And) and len(body.parts) == 2
    assert isinstance(body.parts[0], Lrec)
    assert body.parts[0].w == (svar("z"),)
    assert body.parts[0].r == (nvar("r1"), nvar("r2"))
    assert free_variables(f) == frozenset({svar("z")})


def test_parse_lrec_tuple_mismatch():
    with pytest.raises(ParseError):
        parse_formula("[lrec (x, y), z, #p : E(x, z) ; #p = #p](x, #r)")


def test_parse_sort_clash():
    with pytest.raises(ParseError):
        parse_formula("x = #p")
    with pytest.raises(ParseError):
        parse_formula("x <= y")
    with pytest.raises(ParseError):
        parse_formula("E(x, #p)")


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse_formula("E(x,\n y")
    assert "2:" in str(err.value)


def test_free_variables_simple():
    assert free_variables(parse_formula("#p <= #q")) == {nvar("p"), nvar("q")}
    closed = parse_formula("forall x exists y (E(x, y) or x = y)")
    assert free_variables(closed) == frozenset()


def test_free_variables_keeps_no_formula_alive():
    gc.collect()
    baseline = len(syntax._FREE), len(syntax._INTERNED)
    for i in range(2000):
        free_variables(parse_formula(f"exists y E(x{i}, y)"))
    gc.collect()
    assert (len(syntax._FREE), len(syntax._INTERNED)) == baseline


def test_free_variables_lrec_rule():
    f = parse_formula("[lrec x, y, #p : E(x, y) and P(t) ; x = s](w, #r)")
    assert free_variables(f) == {svar("t"), svar("s"), svar("w"), nvar("r")}


def test_free_variables_lreceq_rule():
    f = parse_formula("[lreceq x, y, #p : Q(z) ; E(x, y) ; x = s](w, #r)")
    assert free_variables(f) == {svar("z"), svar("s"), svar("w"), nvar("r")}


def test_count_free_variables():
    f = parse_formula("count(x ; E(x, y)) = #p")
    assert free_variables(f) == {svar("y"), nvar("p")}


def test_dtc_free_variables_and_expansion():
    f = parse_formula("[dtc x, y : E(x, y)](s, t)")
    assert free_variables(f) == {svar("s"), svar("t")}
    g = expand_dtc(f)
    assert free_variables(g) == free_variables(f)
    assert isinstance(g, Exists)
    node = g.sub
    assert isinstance(node, Lrec)
    # recursion runs over the reversed graph: first tuple is the old v
    assert node.w == (svar("t"),)
    # no dtc nodes remain and re-expansion is identity
    assert expand_dtc(g) == g


def test_expand_dtc_no_dtc_is_identity():
    f = parse_formula("exists x (E(x, x) and not P(x))")
    assert expand_dtc(f) is not None
    assert expand_dtc(f) == f


def test_literal_desugaring():
    f = parse_formula("#p = 0")
    # literal removed: only quantified fresh variables remain
    assert free_variables(f) == {nvar("p")}
    g = parse_formula("#p = 1")
    assert free_variables(g) == {nvar("p")}


# A literal next to an identifier spelled like a literal's name: each text
# means what its twin with `_c<k>` renamed to the k-th letter means.
CAPTURE_CASES = [
    "#_c0 = 0",
    "#_c1 = 1",
    "[lrec x, y, #_c0 : E(x, y) ; #_c0 = 1](z, #r)",
    "[lrec x, y, #p : E(x, y) ; #p <= #_c0](z, (#_c1, 1))",
    "[dtc (x, #_c0), (y, #_c1) : E(x, y) and #_c0 <= #_c1]((s, 0), (t, #_c2))",
    "count(x ; E(x, _c0)) = (#_c1, 1)",
    "count(x ; E(x, x)) = (0, #_c0) and #_c2 = 1",
]


def _twin_name(name):
    return re.sub(r"^_c(\d+)$", lambda m: "abc"[int(m[1])], name)


@pytest.mark.parametrize("text", CAPTURE_CASES)
def test_literals_capture_no_variable_of_the_text(text):
    f = parse_formula(text)
    twin = parse_formula(re.sub(r"_c(\d+)", lambda m: _twin_name(m[0]), text))
    _assert_means_like(f, twin, {v: Var(_twin_name(v.name), v.sort) for v in free_variables(f)})


def test_dtc_rewrite_renames_a_binder_that_meets_the_source():
    # the rewrite's label formula binds v, which here is also the source s
    f = parse_formula("[dtc x, y : E(x, x)](y, x)")
    assert free_variables(expand_dtc(f)) == free_variables(f) == {svar("x"), svar("y")}
    twin = parse_formula("[dtc x, v : E(x, x)](y, x)")
    _assert_means_like(f, twin, {v: v for v in free_variables(f)})


def _assert_means_like(f, twin, rename):
    """f under each assignment is twin under the renamed one, on every
    graph of at most 2 elements; `rename` maps f's free variables onto
    twin's."""
    assert set(rename.values()) == free_variables(twin)
    free = sorted(rename, key=repr)
    for n in (1, 2):
        pairs = list(itertools.product(range(n), repeat=2))
        for bits in range(2 ** len(pairs)):
            edges = {pair for i, pair in enumerate(pairs) if bits >> i & 1}
            structure = Structure(GRAPH_VOCAB, n, {"E": edges})
            domains = [range(n if v.sort == STRUCT else n + 1) for v in free]
            for row in itertools.product(*domains):
                alpha = dict(zip(free, row))
                want = evaluate(structure, {rename[v]: a for v, a in alpha.items()}, twin)
                assert evaluate(structure, alpha, f, "both") == want, (n, edges, alpha)


def test_a_literal_in_a_binder_tuple_is_not_a_variable():
    for text in ("[lrec x, 0, #p : E(x, y) ; #p = #p](z, #r)", "E(x, 0)"):
        with pytest.raises(ParseError, match="expected a variable, found '0'"):
            parse_formula(text)


def test_implication_desugar():
    f = parse_formula("P(x) -> Q(x)")
    assert f == Or((Not(Atom("P", (svar("x"),))), Atom("Q", (svar("x"),))))
    g = parse_formula("P(x) <-> Q(x)")
    assert isinstance(g, And)


def test_pretty_roundtrip_examples():
    texts = [
        "E(x, y)",
        "not (E(x, y) and E(y, x))",
        "exists x forall #p (P(x) or #p <= #q)",
        "count(x, #m ; E(x, x)) = (#p, #q)",
        "[lrec x, y, #p : E(x, y) ; #p = #q](z, (#r, #s))",
        "[lreceq x, y, #p : E(x, y) ; x = y ; #p <= #p](z, #r)",
        "[dtc (x, a), (y, b) : E(x, y) and E(a, b)]((s, s), (t, t))",
        "x = y and (x = z or not x = w)",
        "(x = y and x = z) and (P(x) or (P(y) or P(z))) and x = w",
        "#p = 1 and #q = 0",
    ]
    for text in texts:
        f = parse_formula(text)
        assert parse_formula(pretty(f)) == f


# (repr of the AST, pretty text) of the bench formulas, the README
# examples, the round-trip examples above and texts with two literals in
# one atom, recorded before the bracket syntax was derived from the binder
# table and literals were named from `_Fresh`
PINS = json.loads((Path(__file__).parent / "data" / "syntax_pins.json").read_text())


@pytest.mark.parametrize("text", sorted(PINS))
def test_parse_and_pretty_match_the_pins(text):
    f = parse_formula(text)
    assert [repr(f), pretty(f)] == PINS[text]


def test_and_or_are_flat():
    p, q, r = (Atom(name, (svar("x"),)) for name in "PQR")
    assert parse_formula("P(x) and Q(x) and R(x)") == And((p, q, r))
    assert parse_formula("P(x) or Q(x) and R(x) or P(x)") == Or((p, And((q, r)), p))
    # a parenthesized part of the same kind stays a part, and prints as one
    nested = parse_formula("(P(x) and Q(x)) and R(x)")
    assert nested == And((And((p, q)), r))
    assert pretty(nested) == "(P(x) and Q(x)) and R(x)"
    assert pretty(Or((p, Or((q, r))))) == "P(x) or (Q(x) or R(x))"
    for kind in (And, Or):
        for parts in ((), (p,)):
            with pytest.raises(FormulaError, match="at least two parts"):
                validate(kind(parts))


# --- property: parse . pretty is the identity on random ASTs -------------

_POOLS = {STRUCT: [svar(n) for n in "xyzw"], NUMBER: [nvar(n) for n in "pqrs"]}
_svars, _nvars = st.sampled_from(_POOLS[STRUCT]), st.sampled_from(_POOLS[NUMBER])


def _part_tuples(children, kind):
    """2 to 4 parts for an and/or, sometimes one of its own kind (which
    `pretty` must parenthesize)."""
    own_kind = st.builds(kind, st.lists(children, min_size=2, max_size=3).map(tuple))
    part = st.one_of(children, own_kind)
    return st.lists(part, min_size=2, max_size=4).map(tuple)


@st.composite
def _distinct(draw, sorts, avoid=()):
    """A tuple of distinct variables of the given sorts, none in `avoid`."""
    out = ()
    for sort in sorts:
        out += (draw(st.sampled_from([v for v in _POOLS[sort] if v not in avoid + out])),)
    return out


def _of_sorts(sorts):
    return st.tuples(*(st.sampled_from(_POOLS[sort]) for sort in sorts))


_sorts = st.lists(st.sampled_from((STRUCT, NUMBER)), min_size=1, max_size=2).map(tuple)
_numbers = st.lists(_nvars, min_size=1, max_size=2).map(tuple)


@st.composite
def _bracket(draw, children):
    """An lrec, lreceq or dtc node over compatible 1- or 2-tuples: each
    binder tuple holds distinct variables, and u shares none with v or p."""
    sorts = draw(_sorts)
    u = draw(_distinct(sorts))
    v = draw(_distinct(sorts, avoid=u))
    w = draw(_of_sorts(sorts))
    kind = draw(st.sampled_from((Lrec, LrecEq, Dtc)))
    if kind is Dtc:
        return Dtc(u, v, draw(children), w, draw(_of_sorts(sorts)))
    p = draw(_distinct((NUMBER,) * draw(st.integers(1, 2)), avoid=u))
    subs = [draw(children) for _ in range(3 if kind is LrecEq else 2)]
    return kind(u, v, p, *subs, w, draw(_numbers))


def _formulas():
    atoms = st.one_of(
        st.builds(lambda a, b: Atom("E", (a, b)), _svars, _svars),
        st.builds(Atom, st.just("P"), st.tuples(_svars)),
        st.builds(EqVar, _svars, _svars),
        st.builds(EqVar, _nvars, _nvars),
        st.builds(LeqNum, _nvars, _nvars),
    )

    def extend(children):
        return st.one_of(
            st.builds(Not, children),
            st.builds(And, _part_tuples(children, And)),
            st.builds(Or, _part_tuples(children, Or)),
            st.builds(Exists, st.one_of(_svars, _nvars), children),
            st.builds(Forall, st.one_of(_svars, _nvars), children),
            st.builds(Count, _sorts.flatmap(_distinct), children, _numbers),
            _bracket(children),
        )

    return st.recursive(atoms, extend, max_leaves=12)


@given(_formulas())
@settings(max_examples=300, deadline=None)
def test_pretty_parse_roundtrip(f):
    assert parse_formula(pretty(f)) == f


@given(_formulas())
@settings(max_examples=200, deadline=None)
def test_expand_dtc_idempotent_and_free_preserving(f):
    expanded = expand_dtc(f)
    assert expand_dtc(expanded) == expanded
    assert free_variables(expanded) == free_variables(f)


_mappings = st.tuples(
    st.dictionaries(_svars, _svars), st.dictionaries(_nvars, _nvars)
).map(lambda pair: {**pair[0], **pair[1]})


@given(_formulas(), _mappings)
@settings(max_examples=400, deadline=None)
def test_binder_table_matches_reference_walkers(f, mapping):
    assert free_variables(f) == reference_free_variables(f)
    assert _all_names(f) == reference_all_names(f)
    assert substitute(f, mapping) == reference_substitute(f, mapping)
    expanded = expand_dtc(f)
    assert expanded == reference_expand_dtc(f)
    assert _contains_dtc(f) == (expanded != f)


DEEP_SHAPES = {
    "not": lambda d: "not " * d + "E(x, x)",
    "parentheses": lambda d: "(" * d + "E(x, x)" + ")" * d,
    "and": lambda d: " and ".join(["E(x, x)"] * d),
}


@pytest.mark.parametrize("shape", ["not", "parentheses"])
def test_parse_rejects_too_deep_formulas(shape):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_formula(DEEP_SHAPES[shape]({"parentheses": 3000}.get(shape, 600)))


@pytest.mark.parametrize("op", ["and", "or"])
def test_parse_accepts_long_flat_chains(op):
    # an and/or is one node however many parts it has
    text = f" {op} ".join(f"E(x, y{i})" for i in range(10_000))
    f = parse_formula(text)
    assert type(f) is {"and": And, "or": Or}[op] and len(f.parts) == 10_000
    assert pretty(f) == text
    assert parse_formula(pretty(f)) == f


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_parse_accepts_hundred_deep_formulas(shape):
    assert free_variables(parse_formula(DEEP_SHAPES[shape](100))) == {svar("x")}


# --- the tokenizer against the character scanner it replaced ---------------


def _tokens(tokenize, text):
    """The (kind, text, line, col) of each token, or the ParseError's text."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    except ParseError as exc:
        return str(exc)


_lexemes = st.sampled_from([
    "<->", "->", "<=", "<", "=", "-", "(", ")", "[", "]", ",", ";", ":", "#", " ", "\n",
    "\t", "\r", "\x0b", "\u2028", "\xa0", "and", "or", "not", "exists", "lrec", "x", "_y1",
    "E", "0", "1", "12", "\u00b2", "\u2460", "\u00bd", "\u00e9", "\u0663", "!", "@",
])


@given(st.one_of(st.text(), st.lists(_lexemes).map("".join)))
@settings(max_examples=500, deadline=None)
def test_tokenize_matches_reference(text):
    assert _tokens(_tokenize, text) == _tokens(reference_tokenize, text)


def test_tokenize_examples_match_reference():
    texts = [
        "", "E(x, y)", "#p <= #q\n  and\tnot x = y", "12ab", "x\u00b2 = \u00b2", "a \u00bd",
        "1\u00bd", "p -> q <-> r", "x < y", "count(x ; E(x, x)) = 1\n\n  ?",
    ]
    for text in texts:
        assert _tokens(_tokenize, text) == _tokens(reference_tokenize, text), text
