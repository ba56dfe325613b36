"""Tests of the benchmark itself: run with `python -m pytest bench`."""

import random
import shutil
from collections import Counter

import checks
import gen
import run
import tracing
import workloads

SEEDS = (0, 1, 7, 123456)


def test_every_input_has_its_requested_size():
    for workload in workloads.BUILDERS:
        for seed in SEEDS:
            for item in workloads.build(workload, seed):
                text = next(iter(item.files.values()))
                assert gen.actual_size(item.family, text) == item.size, item.name


def test_random_circuits_have_exactly_n_gates():
    for seed in range(20):
        for n in (1, 2, 60, 1000):
            edges, kinds = gen.random_circuit(n, random.Random(seed))
            assert sorted(kinds) == list(range(n))
            assert len(edges) == n - 1
            assert max(Counter(a for a, _ in edges).values(), default=0) <= 3


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.BUILDERS:
        first = [(i.name, i.files, i.argv) for i in workloads.build(workload, 5)]
        again = [(i.name, i.files, i.argv) for i in workloads.build(workload, 5)]
        other = [(i.name, i.files, i.argv) for i in workloads.build(workload, 6)]
        assert first == again
        assert first != other


def _edges(text):
    return {(int(t[1]), int(t[2])) for t in map(str.split, text.splitlines()) if t[0] == "E"}


def test_tree_twins_are_isomorphic_relabellings():
    items = {i.name: i for i in workloads.build("tree_canon", 3)}
    for item in items.values():
        if item.twin_of:
            first = items[item.twin_of]
            a, b = _edges(first.files["tree.struct"]), _edges(item.files["tree.struct"])
            n = len(a) + 1
            assert checks.ahu_string(n, a) == checks.ahu_string(n, b)


def test_tree_check_tells_shapes_apart():
    path = gen.path_tree(6)
    star = gen.star_tree(6)
    out_path = "n 6\n" + "".join(f"{a + 1} {b + 1}\n" for a, b in sorted(path))
    assert checks.check_tree_canon(out_path, 6, checks.ahu_string(6, path)) is None
    assert checks.check_tree_canon(out_path, 6, checks.ahu_string(6, star)) is not None


def test_interval_checks_reject_wrong_outputs():
    edges = gen.path_graph(5)
    good = "n 5\n1 2\n2 3\n3 4\n4 5\n"
    star = "n 5\n1 2\n1 3\n1 4\n1 5\n"
    assert checks.check_interval_canon(good, 5, edges) is None
    assert checks.check_interval_canon(star, 5, edges) is not None
    model = "0 1 1\n1 1 2\n2 2 3\n3 3 4\n4 4 4\n"
    assert checks.check_interval_model(model, 5, edges) is None
    assert checks.check_interval_model(model.replace("4 4 4", "4 3 4"), 5, edges) is not None


def test_logic_oracles():
    edges, kinds = gen.not_chain(5, "P1")
    assert checks.circuit_value(5, edges, kinds, 0) is True
    assert checks.deterministic_reach({(0, 1), (1, 2), (2, 0)}, 0, 2)
    assert not checks.deterministic_reach({(0, 1), (0, 2), (1, 2)}, 0, 2)
    assert checks.connected(4, {(0, 1), (2, 3)}, 1, 0)
    assert not checks.connected(4, {(0, 1), (2, 3)}, 1, 2)
    two = "vocab E/2\nuniverse 4\nE 0 1\nE 2 3\n"
    assert checks.check_two_paths(two, 2) is None
    assert checks.check_two_paths(two.replace("E 2 3", "E 1 2"), 2) is not None


def test_checks_do_not_recurse_on_deep_inputs():
    n = 20000
    assert checks.ahu_string(n, gen.path_tree(n)).startswith("((")
    edges, kinds = gen.not_chain(n, "P0")
    assert checks.circuit_value(n, edges, kinds, 0) is True


def test_traced_run_counts_and_restores():
    item = workloads.Item(
        name="tiny", family="random", size=7, argv=["canon-tree", "@tree.struct"],
        files={"tree.struct": gen.structure_text(gen.GRAPH_VOCAB, 7, gen.binary_tree(7))},
        expect=lambda: (0, lambda out: None),
    )
    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / "test-tiny"
    (workdir / "000").mkdir(parents=True, exist_ok=True)
    (workdir / "000" / "tree.struct").write_text(item.files["tree.struct"])
    try:
        lib = run.import_limrec()
        original = lib["cli"].tree_canon
        tracer = tracing.Tracer(lib)
        runner = tracer.wrap_runner(run.make_runner(lib))
        with tracer.installed():
            assert lib["cli"].tree_canon is not original
            _, code, stdout = runner(item, workdir / "000")
        assert lib["cli"].tree_canon is original
        assert code == 0 and stdout.startswith("n 7\n")
        metrics = tracer.metrics()
        assert metrics["treelogic.tree_canon.calls"] == 1
        assert metrics["treelogic.tree_canon.queries"] == 49
        assert metrics["treelogic._CanonGraph.out_neighbours.calls"] > 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
