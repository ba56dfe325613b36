import copy
import gc
import pickle
import sys
import threading
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limrec import syntax
from limrec.errors import FormulaError, ParseError
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

_svars = st.sampled_from([svar(n) for n in "xyzw"])
_nvars = st.sampled_from([nvar(n) for n in "pqrs"])


def _part_tuples(children, kind):
    """2 to 4 parts for an and/or, sometimes one of its own kind (which
    `pretty` must parenthesize)."""
    own_kind = st.builds(kind, st.lists(children, min_size=2, max_size=3).map(tuple))
    part = st.one_of(children, own_kind)
    return st.lists(part, min_size=2, max_size=4).map(tuple)


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
            st.builds(
                lambda u, sub, p: Count((u,), sub, (p,)), _svars, children, _nvars
            ),
            st.builds(
                lambda e, c, w, r: Lrec((svar("x"),), (svar("y"),), (nvar("p"),), e, c, (w,), (r,)),
                children, children, _svars, _nvars,
            ),
            st.builds(
                lambda q, e, c: LrecEq(
                    (svar("x"),), (svar("y"),), (nvar("p"),), q, e, c, (svar("z"),), (nvar("r"),)
                ),
                children, children, children,
            ),
            st.builds(
                lambda sub: Dtc((svar("x"),), (svar("y"),), sub, (svar("z"),), (svar("w"),)),
                children,
            ),
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
