"""Differential sweeps at sizes too large for the default run.

Deselected by default; run them with `python -m pytest -m slow`.
"""

import random

import pytest

from limrec.cli import main
from limrec.intervalcanon import Graph, interval_canon
from limrec.structures import (
    GRAPH_VOCAB, Structure, generate_random_interval_graph, generate_random_tree,
)
from limrec.treelogic import DirectedTree, tree_canon

from .helpers import (
    canon_edges_to_tree, circuit_value_oracle, not_chain, permute_tree, random_permutation,
    streaming_iso_query_peak, tree_canon_oracle,
)
from .test_intervalcanon import _relabel

pytestmark = pytest.mark.slow


def test_tree_canon_large_random_trees():
    rng = random.Random(3)
    canons, keys = [], []
    for n in (100, 150, 500):
        for seed in range(3):
            tree = DirectedTree.from_structure(generate_random_tree(n, seed=seed))
            canon = tree_canon(tree)
            key = tree_canon_oracle(tree)
            assert tree_canon_oracle(canon_edges_to_tree(canon, n)) == key
            twin = permute_tree(tree, random_permutation(n, rng))
            assert tree_canon(twin) == canon, (n, seed)
            canons.append(canon)
            keys.append(key)
    for i in range(len(canons)):
        for j in range(len(canons)):
            assert (canons[i] == canons[j]) == (keys[i] == keys[j]), (i, j)


def test_interval_canon_large_random_graphs():
    rng = random.Random(3)
    canons, degrees = [], []
    for n in (100, 200):
        for seed in range(2):
            g = Graph.from_structure(generate_random_interval_graph(n, seed=seed))
            canon = interval_canon(g)
            perm = random_permutation(g.n, rng)
            assert interval_canon(_relabel(g, perm)) == canon, (n, seed)
            canons.append(canon)
            degrees.append(sorted(len(g.adj[v]) for v in g.vertices))
    for i in range(len(canons)):
        for j in range(len(canons)):
            if degrees[i] != degrees[j]:
                assert canons[i] != canons[j], (i, j)


def test_interval_canon_relabelled_twins_at_scale(tmp_path, capsys):
    rng = random.Random(4)
    for n in (320, 640):
        for g in (
            Graph.from_structure(generate_random_interval_graph(n, seed=0)),
            Graph(range(n), [(v, v + 1) for v in range(n - 1)]),
        ):
            outputs = []
            for h in (g, _relabel(g, random_permutation(n, rng))):
                path = tmp_path / "g.struct"
                path.write_text(Structure(GRAPH_VOCAB, n, {"E": h.edges()}).serialize())
                assert main(["canon-interval", str(path)]) == 0
                outputs.append(capsys.readouterr().out.encode())
            assert outputs[0] == outputs[1], n


def test_check_circuit_on_a_long_not_chain(tmp_path, capsys):
    chain = not_chain(3000)
    path = tmp_path / "chain.struct"
    path.write_text(chain.serialize())
    assert main(["check", "--kind", "circuit", str(path)]) == 0
    value = str(circuit_value_oracle(chain)).lower()
    assert capsys.readouterr().out.strip() == f"circuit ok, worst path product 1, value {value}"


def test_streaming_iso_query_on_a_63_vertex_complete_binary_tree():
    # |W| = 4,332,307 nodes over 2,659 (vertex, resource) pairs; storing W
    # itself peaked at 1.1 GB
    verdict, memo_verdict, peak = streaming_iso_query_peak(63)
    assert verdict is memo_verdict is True
    assert peak < 50 * 2 ** 20
