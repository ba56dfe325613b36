import pytest

from limrec.errors import DomainError, ParseError
from limrec.structures import (
    Structure, Vocabulary, generate_layered_graph, generate_random_circuit,
    generate_random_interval_graph, generate_random_tree, num_decode,
    num_encode, quotient_by_equivalence,
)


def test_num_encode_examples():
    assert num_encode((4, 0), 11) == 4
    assert num_encode((0, 0, 0), 7) == 0
    assert num_encode((1, 2), 3) == 9


def test_num_encode_out_of_range():
    with pytest.raises(DomainError):
        num_encode((5,), 4)
    with pytest.raises(DomainError):
        num_encode((), 4)


def test_num_decode_examples():
    assert num_decode(4, 2, 11) == (4, 0)
    assert num_decode(0, 3, 5) == (0, 0, 0)
    assert num_decode(9, 2, 3) == (1, 2)
    with pytest.raises(DomainError):
        num_decode(16, 2, 3)


def test_roundtrip_exhaustive():
    import itertools

    for n in range(1, 6):
        for k in range(1, 4):
            for tup in itertools.product(range(n + 1), repeat=k):
                assert num_decode(num_encode(tup, n), k, n) == tup
            for value in range((n + 1) ** k):
                assert num_encode(num_decode(value, k, n), n) == value


def test_quotient_discrete():
    reps, edges, _ = quotient_by_equivalence([["a"], ["b"]], {("a", "b")})
    assert sorted(reps) == ["a", "b"]
    assert edges == {("a", "b")}


def test_quotient_self_loop():
    reps, edges, _ = quotient_by_equivalence([["a", "b"]], {("a", "b")})
    assert reps == ["a"]
    assert edges == {("a", "a")}


def test_quotient_components_of_two_component_graph():
    # connected components of 0-1 and 2-3 by search, then quotient: no edges
    # survive because the edge formula never relates distinct components
    comps = [[0, 1], [2, 3]]
    reps, edges, _ = quotient_by_equivalence(comps, set())
    assert len(reps) == 2 and edges == set()


def test_quotient_errors():
    with pytest.raises(DomainError):
        quotient_by_equivalence([["a"], ["a"]], set())
    with pytest.raises(DomainError):
        quotient_by_equivalence([["a"]], {("a", "z")})


@pytest.mark.parametrize("n,verts,edges", [(1, 2, 0), (2, 8, 8), (3, 18, 36)])
def test_layered_graph_counts(n, verts, edges):
    g = generate_layered_graph(n)
    assert g.universe_size == verts
    assert len(g.rel("E")) == edges


def test_layered_graph_general_counts():
    for n in range(1, 7):
        g = generate_layered_graph(n)
        assert g.universe_size == 2 * n * n
        assert len(g.rel("E")) == 2 * n * n * (n - 1)


def test_layered_graph_rejects_zero():
    with pytest.raises(DomainError):
        generate_layered_graph(0)


def test_structure_parse_roundtrip():
    text = """
    # a comment
    vocab E/2 P/1
    universe 3
    names a b c
    E a b
    E b c
    P c
    """
    s = Structure.parse(text)
    assert s.universe_size == 3
    assert s.rel("E") == {(0, 1), (1, 2)}
    assert s.rel("P") == {(2,)}
    again = Structure.parse(s.serialize())
    assert again == s


def test_structure_parse_indices_without_names():
    s = Structure.parse("vocab E/2\nuniverse 2\nE 0 1\n")
    assert s.rel("E") == {(0, 1)}


def test_structure_parse_errors():
    with pytest.raises(ParseError):
        Structure.parse("universe 3\n")
    with pytest.raises(ParseError):
        Structure.parse("vocab E/2\nuniverse 2\nE 0\n")
    with pytest.raises(ParseError):
        Structure.parse("vocab E/2\nuniverse 2\nF 0 1\n")


def test_generators_deterministic():
    a = generate_random_tree(9, seed=5)
    b = generate_random_tree(9, seed=5)
    assert a == b
    c = generate_random_interval_graph(7, seed=42)
    d = generate_random_interval_graph(7, seed=42)
    assert c.serialize() == d.serialize()
    e = generate_random_circuit(12, seed=3)
    f = generate_random_circuit(12, seed=3)
    assert e == f


def test_random_tree_shape():
    t = generate_random_tree(10, seed=1)
    assert len(t.rel("E")) == 9
    children = [c for _, c in t.rel("E")]
    assert sorted(children) == list(range(1, 10))


def test_vocabulary_validation():
    with pytest.raises(DomainError):
        Vocabulary((("E", 2), ("E", 1)))
    with pytest.raises(DomainError):
        Vocabulary((("E", 0),))


from hypothesis import given
from hypothesis import strategies as st


@given(st.integers(1, 4), st.data())
def test_quotient_properties(k, data):
    # vertex count equals the number of classes, edge count never grows
    members = list(range(8))
    assignment = data.draw(
        st.lists(st.integers(0, k - 1), min_size=8, max_size=8)
    )
    classes = [
        [m for m, cls in zip(members, assignment) if cls == c] for c in range(k)
    ]
    classes = [cls for cls in classes if cls]
    edges = set(
        data.draw(
            st.lists(
                st.tuples(st.sampled_from(members), st.sampled_from(members)),
                max_size=12,
            )
        )
    )
    reps, qedges, rep_of = quotient_by_equivalence(classes, edges)
    assert len(reps) == len(classes)
    assert len(qedges) <= len(edges)
    assert all(rep_of[m] in reps for cls in classes for m in cls)


def test_random_circuit_has_exactly_the_requested_gates():
    for n in range(1, 61):
        for seed in range(20):
            s = generate_random_circuit(n, seed=seed)
            assert s.universe_size == n
            edges = s.rel("E")
            assert len(edges) == n - 1
            assert sorted(b for _, b in edges) == list(range(1, n))  # one parent each
            assert all(a < b for a, b in edges)  # so no cycle: a tree under gate 0
            out = {g: [b for a, b in edges if a == g] for g in range(n)}
            kinds = {g: name for name in ("Pand", "Por", "Pnot", "P0", "P1")
                     for (g,) in s.rel(name)}
            assert sorted(kinds) == list(range(n))
            assert sum(len(s.rel(name)) for name in ("Pand", "Por", "Pnot", "P0", "P1")) == n
            for g in range(n):
                assert len(out[g]) <= 3
                assert (kinds[g] in ("P0", "P1")) == (not out[g])
                if kinds[g] == "Pnot":
                    assert len(out[g]) == 1


def test_element_names_take_precedence_and_stay_distinct():
    s = Structure.parse("vocab E/2\nuniverse 3\nnames 1 0 c\nE 1 0\nE 0 2\n")
    # a name is looked up before the decimal index it spells
    assert s.rel("E") == {(0, 1), (1, 2)}
    assert [s.element_index(t) for t in ("1", "0", "c", "2")] == [0, 1, 2, 2]
    with pytest.raises(DomainError):
        s.element_index("d")
    with pytest.raises(DomainError):
        Structure.parse("vocab E/2\nuniverse 2\nnames a a\n")


def test_structure_parse_rejects_a_non_numeric_universe():
    with pytest.raises(ParseError) as err:
        Structure.parse("vocab E/2\nuniverse x\n")
    assert err.value.line == 2


def test_rel_and_binary_rel_reject_symbols_they_cannot_serve():
    s = Structure.parse("vocab F/2 T/3\nuniverse 2\nF 0 1\n")
    assert s.binary_rel("F") == {(0, 1)}
    with pytest.raises(DomainError):
        s.rel("E")
    with pytest.raises(DomainError):
        s.binary_rel("E")
    with pytest.raises(DomainError):
        s.binary_rel("T")
