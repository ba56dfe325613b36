import random
from pathlib import Path

from limrec.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_circuit_formula(capsys):
    code, out, _ = run(
        capsys, "eval", str(DATA / "circuit_small.struct"),
        str(DATA / "circuit_eval.formula"), "--bind", "z=a",
    )
    assert code == 0 and out.strip() == "true"


def test_eval_engine_both(capsys):
    code, out, _ = run(
        capsys, "eval", str(DATA / "circuit_small.struct"),
        str(DATA / "circuit_eval.formula"), "--bind", "z=a", "--engine", "both",
    )
    assert code == 0 and out.strip() == "true"


def test_eval_false_exit_code(capsys, tmp_path):
    struct = tmp_path / "g.struct"
    struct.write_text("vocab E/2\nuniverse 2\nE 0 1\n")
    formula = tmp_path / "f.formula"
    formula.write_text("E(y, x)\n")
    code, out, _ = run(
        capsys, "eval", str(struct), str(formula), "--bind", "x=0", "--bind", "y=1",
    )
    assert code == 1 and out.strip() == "false"


def test_eval_tautology(capsys, tmp_path):
    struct = tmp_path / "g.struct"
    struct.write_text("vocab E/2\nuniverse 3\n")
    formula = tmp_path / "f.formula"
    formula.write_text("forall x x = x\n")
    code, out, _ = run(capsys, "eval", str(struct), str(formula))
    assert code == 0 and out.strip() == "true"


def test_eval_binding_error(capsys, tmp_path):
    struct = tmp_path / "g.struct"
    struct.write_text("vocab E/2\nuniverse 2\n")
    formula = tmp_path / "f.formula"
    formula.write_text("E(x, y)\n")
    code, _, err = run(capsys, "eval", str(struct), str(formula), "--bind", "zz=1")
    assert code == 2 and "zz" in err


def test_parse_error_exit_code(capsys, tmp_path):
    struct = tmp_path / "g.struct"
    struct.write_text("vocab E/2\nuniverse 2\n")
    formula = tmp_path / "f.formula"
    formula.write_text("E(x,\n")
    code, _, err = run(capsys, "eval", str(struct), str(formula))
    assert code == 2 and "error" in err


def test_canon_tree_path(capsys, tmp_path):
    f = tmp_path / "tree.txt"
    f.write_text("parents -1 0 1\n")
    code, out, _ = run(capsys, "canon-tree", str(f))
    assert code == 0
    assert out.splitlines() == ["n 3", "1 2", "2 3"]


def test_canon_tree_structure_format(capsys, tmp_path):
    f = tmp_path / "tree.struct"
    f.write_text("vocab E/2\nuniverse 3\nE 0 1\nE 0 2\n")
    code, out, _ = run(capsys, "canon-tree", str(f))
    assert code == 0
    assert out.splitlines() == ["n 3", "1 2", "1 3"]


def test_canon_interval_triangle(capsys, tmp_path):
    f = tmp_path / "g.struct"
    f.write_text("vocab E/2\nuniverse 3\nE 0 1\nE 1 2\nE 0 2\n")
    code, out, _ = run(capsys, "canon-interval", str(f))
    assert code == 0
    assert out.splitlines() == ["n 3", "1 2", "1 3", "2 3"]


def test_canon_interval_rejects_cycle(capsys, tmp_path):
    f = tmp_path / "g.struct"
    f.write_text("vocab E/2\nuniverse 4\nE 0 1\nE 1 2\nE 2 3\nE 3 0\n")
    code, _, err = run(capsys, "canon-interval", str(f))
    assert code == 3 and "rejected" in err


def test_iso_self(capsys, tmp_path):
    f = tmp_path / "g.struct"
    f.write_text("vocab E/2\nuniverse 4\nE 0 1\nE 1 2\nE 2 3\n")
    code, out, _ = run(capsys, "iso", "--kind", "interval", str(f), str(f))
    assert code == 0 and out.strip() == "isomorphic"


def test_iso_path_vs_star(capsys, tmp_path):
    path = tmp_path / "p.struct"
    path.write_text("vocab E/2\nuniverse 4\nE 0 1\nE 1 2\nE 2 3\n")
    star = tmp_path / "s.struct"
    star.write_text("vocab E/2\nuniverse 4\nE 0 1\nE 0 2\nE 0 3\n")
    code, out, _ = run(capsys, "iso", "--kind", "interval", str(path), str(star))
    assert code == 1 and out.strip() == "not isomorphic"


def test_iso_relabelled_trees(capsys, tmp_path):
    rng = random.Random(3)
    from limrec.structures import generate_random_tree
    from .helpers import permute_tree, random_permutation, tree_to_structure
    from limrec.treelogic import DirectedTree

    for seed in range(20):
        t = DirectedTree.from_structure(generate_random_tree(8, seed=seed))
        perm = random_permutation(t.n, rng)
        left = tmp_path / f"l{seed}.struct"
        right = tmp_path / f"r{seed}.struct"
        left.write_text(tree_to_structure(t).serialize())
        right.write_text(tree_to_structure(permute_tree(t, perm)).serialize())
        code, out, _ = run(capsys, "iso", "--kind", "tree", str(left), str(right))
        assert code == 0 and out.strip() == "isomorphic"


def test_gen_layered_counts(capsys):
    code, out, _ = run(capsys, "gen", "layered", "3")
    assert code == 0
    from limrec.structures import Structure

    s = Structure.parse(out)
    assert s.universe_size == 18 and len(s.rel("E")) == 36


def test_gen_deterministic(capsys):
    _, out1, _ = run(capsys, "gen", "interval", "7", "--seed", "42")
    _, out2, _ = run(capsys, "gen", "interval", "7", "--seed", "42")
    assert out1 == out2
    _, out3, _ = run(capsys, "gen", "tree", "1")
    from limrec.structures import Structure

    assert Structure.parse(out3).universe_size == 1


def test_gen_bad_params(capsys):
    code, _, err = run(capsys, "gen", "layered", "0")
    assert code == 2


def test_check_interval_prints_model(capsys, tmp_path):
    f = tmp_path / "g.struct"
    f.write_text("vocab E/2\nuniverse 3\nnames a b c\nE a b\nE b c\n")
    code, out, _ = run(capsys, "check", "--kind", "interval", str(f))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    spans = {}
    for line in lines:
        name, l, r = line.split()
        spans[name] = (int(l), int(r))
    assert spans["b"][0] <= spans["a"][1] and spans["a"][0] <= spans["b"][1]


def test_check_tree(capsys, tmp_path):
    f = tmp_path / "t.txt"
    f.write_text("parents -1 0 0\n")
    code, out, _ = run(capsys, "check", "--kind", "tree", str(f))
    assert code == 0 and "3 vertices" in out


def test_check_tree_rejects_cycle(capsys, tmp_path):
    f = tmp_path / "t.struct"
    f.write_text("vocab E/2\nuniverse 3\nE 0 1\nE 1 2\nE 2 0\n")
    code, _, err = run(capsys, "check", "--kind", "tree", str(f))
    assert code == 3 and "rejected" in err


def test_check_circuit(capsys):
    code, out, _ = run(capsys, "check", "--kind", "circuit", str(DATA / "circuit_small.struct"))
    assert code == 0 and "value true" in out


def test_gen_circuit_size(capsys):
    for size in (1, 9, 100):
        code, out, _ = run(capsys, "gen", "circuit", str(size), "--seed", "3")
        assert code == 0 and f"universe {size}\n" in out


def test_eval_engines_never_disagree_on_generated_circuits(capsys, tmp_path):
    formula = tmp_path / "f.formula"
    formula.write_text((DATA / "circuit_eval.formula").read_text())
    for seed in range(12):
        code, out, _ = run(capsys, "gen", "circuit", "9", "--seed", str(seed))
        assert code == 0
        struct = tmp_path / f"c{seed}.struct"
        struct.write_text(out)
        code_both, out_both, _ = run(
            capsys, "eval", str(struct), str(formula), "--bind", "z=0",
            "--engine", "both",
        )
        assert code_both in (0, 1)
        code_memo, out_memo, _ = run(
            capsys, "eval", str(struct), str(formula), "--bind", "z=0",
        )
        assert out_both == out_memo


def test_canon_output_reingested_isomorphic(capsys, tmp_path):
    src = tmp_path / "g.struct"
    src.write_text("vocab E/2\nuniverse 5\nE 0 1\nE 1 2\nE 1 3\nE 3 4\nE 1 4\n")
    code, out, _ = run(capsys, "canon-interval", str(src))
    assert code == 0
    lines = out.splitlines()
    n = int(lines[0].split()[1])
    edges = [tuple(int(x) - 1 for x in line.split()) for line in lines[1:]]
    canon = tmp_path / "canon.struct"
    canon.write_text(
        "vocab E/2\nuniverse %d\n%s\n"
        % (n, "\n".join(f"E {a} {b}" for a, b in edges))
    )
    code, out, _ = run(capsys, "iso", "--kind", "interval", str(src), str(canon))
    assert code == 0 and out.strip() == "isomorphic"


def test_check_interval_reads_stdin(capsys, tmp_path, monkeypatch):
    import io

    text = "vocab E/2\nuniverse 3\nnames a b c\nE a b\nE b c\n"
    f = tmp_path / "g.struct"
    f.write_text(text)
    by_path = run(capsys, "check", "--kind", "interval", str(f))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    by_stdin = run(capsys, "check", "--kind", "interval", "-")
    assert by_stdin == by_path and by_stdin[0] == 0


def test_eval_too_deep_formula_is_an_input_error(capsys, tmp_path):
    struct = tmp_path / "g.struct"
    struct.write_text("vocab E/2\nuniverse 2\nE 0 1\n")
    formula = tmp_path / "f.formula"
    for text in ("not " * 600 + "E(x, x)", "(" * 3000 + "E(x, x)" + ")" * 3000,
                 " and ".join(["E(x, x)"] * 600)):
        formula.write_text(text)
        code, out, err = run(capsys, "eval", str(struct), str(formula), "--bind", "x=0")
        assert code == 2 and out == "" and "nested too deeply" in err


def test_graph_commands_reject_a_structure_without_a_binary_e(capsys, tmp_path):
    commands = (
        ("canon-tree",), ("canon-interval",), ("check",), ("check", "--kind", "tree"),
        ("check", "--kind", "interval"), ("check", "--kind", "circuit"),
    )
    for vocab in ("vocab F/2\nuniverse 2\nF 0 1\n", "vocab E/3\nuniverse 2\nE 0 1 1\n"):
        f = tmp_path / "g.struct"
        f.write_text(vocab)
        for command in commands:
            code, _, err = run(capsys, *command, str(f))
            assert code == 2 and err.startswith("error:"), (vocab, command, err)
