import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limrec.errors import ParseError
from limrec.syntax import (
    And, Atom, Count, Dtc, EqVar, Exists, Forall, LeqNum, Lrec, LrecEq, Not,
    Or, _all_names, _contains_dtc, expand_dtc, free_variables, nvar, parse_formula,
    pretty, substitute, svar,
)

from .helpers import (
    reference_all_names, reference_expand_dtc, reference_free_variables,
    reference_substitute,
)


def test_parse_atom():
    f = parse_formula("E(x, y)")
    assert f == Atom("E", (svar("x"), svar("y")))


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
    assert isinstance(body, And)
    assert isinstance(body.left, Lrec)
    assert body.left.w == (svar("z"),)
    assert body.left.r == (nvar("r1"), nvar("r2"))
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
    assert f == Or(Not(Atom("P", (svar("x"),))), Atom("Q", (svar("x"),)))
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
    ]
    for text in texts:
        f = parse_formula(text)
        assert parse_formula(pretty(f)) == f


# --- property: parse . pretty is the identity on random ASTs -------------

_svars = st.sampled_from([svar(n) for n in "xyzw"])
_nvars = st.sampled_from([nvar(n) for n in "pqrs"])


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
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Exists, _svars, children),
            st.builds(Forall, _nvars, children),
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
