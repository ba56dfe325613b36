"""Differential sweeps at sizes too large for the default run.

Deselected by default; run them with `python -m pytest -m slow`.
"""

import random

import pytest

from limrec.intervalcanon import Graph, interval_canon
from limrec.structures import generate_random_interval_graph, generate_random_tree
from limrec.treelogic import DirectedTree, canon_edges_to_tree, tree_canon, tree_canon_oracle

from .helpers import permute_tree, random_permutation
from .test_intervalcanon import _relabel

pytestmark = pytest.mark.slow


def test_tree_canon_large_random_trees():
    rng = random.Random(3)
    canons, keys = [], []
    for n in (100, 150):
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
