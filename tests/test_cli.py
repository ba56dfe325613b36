import ast
import os
import random
import subprocess
import sys
from pathlib import Path

from limrec import cli, treelogic
from limrec.cli import main
from limrec.structures import Structure

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


def test_a_literal_does_not_capture_a_variable_of_the_formula(capsys, tmp_path):
    # the literal's own fresh variable avoids the name _c0
    struct = tmp_path / "s.struct"
    struct.write_text("vocab E/2\nuniverse 2\n")
    formula = tmp_path / "f.formula"
    formula.write_text("#_c0 = 0\n")
    for value, code in (("2", 1), ("0", 0)):
        got = run(capsys, "eval", str(struct), str(formula), "--bind", f"_c0={value}")
        assert got == (code, ["true\n", "false\n"][code], "")


def test_canon_tree_path(capsys, tmp_path):
    f = tmp_path / "tree.txt"
    f.write_text("parents -1 0 1\n")
    code, out, _ = run(capsys, "canon-tree", str(f))
    assert code == 0
    assert out.splitlines() == ["n 3", "1 2", "2 3"]


def test_canon_tree_names_a_non_integer_parent_entry(capsys, tmp_path):
    f = tmp_path / "tree.txt"
    f.write_text("parents -1 0 x\n")
    code, out, err = run(capsys, "canon-tree", str(f))
    assert (code, out) == (2, "")
    assert err == "error: parent entry 3 is 'x', not an integer\n"


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


def test_check_rejects_a_hole_with_a_chordless_cycle(capsys, tmp_path):
    # C5 plus a pendant vertex: the certificate is the induced 5-cycle, in
    # cycle order
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 5)]
    f = tmp_path / "g.struct"
    f.write_text("vocab E/2\nuniverse 6\n" + "".join(f"E {a} {b}\n" for a, b in edges))
    code, out, err = run(capsys, "check", str(f))
    assert code == 3 and out == ""
    message, certificate = err.splitlines()
    assert message == "rejected: not chordal: not an interval graph"
    assert certificate.startswith("certificate: ")
    cycle = ast.literal_eval(certificate.removeprefix("certificate: "))
    assert sorted(cycle) == [0, 1, 2, 3, 4]
    steps = {frozenset((a, cycle[i - 1])) for i, a in enumerate(cycle)}
    assert steps == set(map(frozenset, edges[:5]))


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


def test_check_tree_rejection_names_the_element_by_its_file_name(capsys, tmp_path):
    f = tmp_path / "t.struct"
    f.write_text("vocab E/2\nuniverse 3\nnames r s t\nE r s\nE t s\n")
    code, out, err = run(capsys, "check", "--kind", "tree", str(f))
    assert (code, out) == (3, "")
    assert err == "rejected: vertex s has two parents\n"


def test_check_circuit(capsys):
    code, out, _ = run(capsys, "check", "--kind", "circuit", str(DATA / "circuit_small.struct"))
    assert code == 0 and "value true" in out


def test_circuit_shape_is_built_and_path_checked_once(capsys, monkeypatch):
    calls = {"_circuit_shape": 0, "_postorder": 0}  # the path check walks one postorder
    for name in calls:
        def counting(*args, original=getattr(treelogic, name), name=name):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(treelogic, name, counting)
    struct = DATA / "circuit_small.struct"
    assert treelogic.circuit_value(Structure.parse(struct.read_text())) is True
    assert calls == {"_circuit_shape": 1, "_postorder": 1}
    code, out, _ = run(capsys, "check", "--kind", "circuit", str(struct))
    assert code == 0 and "value true" in out
    assert calls == {"_circuit_shape": 2, "_postorder": 2}


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
    for text in ("not " * 600 + "E(x, x)", "(" * 3000 + "E(x, x)" + ")" * 3000):
        formula.write_text(text)
        code, out, err = run(capsys, "eval", str(struct), str(formula), "--bind", "x=0")
        assert code == 2 and out == "" and "nested too deeply" in err


def test_eval_long_flat_chains(capsys, tmp_path):
    # an and/or of 10,000 parts is one node, not 10,000 levels of nesting
    struct = tmp_path / "g.struct"
    struct.write_text("vocab E/2\nuniverse 2\nE 0 1\n")
    formula = tmp_path / "f.formula"
    for op, expected in (("and", 1), ("or", 0)):
        formula.write_text(f" {op} ".join(["E(x, x)"] * 9_999 + ["E(x, y)"]))
        code, out, err = run(capsys, "eval", str(struct), str(formula), "--bind", "x=0",
                             "--bind", "y=1")
        assert (code, err) == (expected, ""), (op, err)


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


def test_check_circuit_rejects_a_gate_relation_that_is_not_unary(capsys, tmp_path):
    f = tmp_path / "c.struct"
    f.write_text("vocab E/2 P0/2 P1/1 Pand/1 Por/1 Pnot/1\nuniverse 2\nP0 0 1\n")
    code, out, err = run(capsys, "check", "--kind", "circuit", str(f))
    assert code == 2 and out == ""
    assert err.startswith("error: gate relation P0 must be unary, not P0/2"), err


def test_eval_rejects_an_atom_with_the_wrong_argument_count(capsys, tmp_path):
    struct = tmp_path / "g.struct"
    struct.write_text("vocab E/2\nuniverse 2\nE 0 1\n")
    formula = tmp_path / "f.formula"
    for text, given in (("exists x E(x)", 1), ("exists x E(x, x, x)", 3)):
        formula.write_text(text)
        code, out, err = run(capsys, "eval", str(struct), str(formula))
        assert code == 2 and out == "", (text, out)
        assert err.startswith(f"error: relation E has arity 2, but the atom gives it {given}"), err


def _two_sorts_files(tmp_path):
    struct = tmp_path / "g.struct"
    struct.write_text("vocab E/2\nuniverse 2\nE 0 1\n")
    formula = tmp_path / "f.formula"
    formula.write_text("exists y (E(x, y) and #x <= #y)\n")
    return str(struct), str(formula)


def test_bind_tells_the_sorts_of_one_name_apart(capsys, tmp_path):
    # x and #x are two free variables: `#x` names the number one, a bare
    # `x` the structure one
    struct, formula = _two_sorts_files(tmp_path)
    for x, nx, ny, want in (("0", "1", "2", 0), ("0", "2", "1", 1), ("1", "0", "0", 1)):
        code, out, err = run(
            capsys, "eval", struct, formula,
            "--bind", f"x={x}", "--bind", f"#x={nx}", "--bind", f"y={ny}",
        )
        assert (code, out, err) == (want, ["true\n", "false\n"][want], ""), (x, nx, ny)


def test_bind_a_bare_name_of_the_only_number_variable(capsys, tmp_path):
    struct, formula = _two_sorts_files(tmp_path)
    # y names only #y; #y does not name a structure variable
    code, out, _ = run(capsys, "eval", struct, formula, "--bind", "x=0", "--bind", "#x=0",
                       "--bind", "y=2")
    assert (code, out) == (0, "true\n")
    code, _, err = run(capsys, "eval", struct, formula, "--bind", "#z=0")
    assert code == 2 and "'#z' is not a free variable" in err


def test_bind_a_number_variable_to_a_non_number(capsys, tmp_path):
    struct, formula = _two_sorts_files(tmp_path)
    code, out, err = run(capsys, "eval", struct, formula, "--bind", "x=0", "--bind", "#x=abc")
    assert (code, out) == (2, "")
    assert err == "error: value 'abc' for #x is not a number\n"


def test_bind_the_same_variable_twice(capsys, tmp_path):
    struct, formula = _two_sorts_files(tmp_path)
    code, out, err = run(capsys, "eval", struct, formula, "--bind", "x=0", "--bind", "x=1",
                         "--bind", "#x=0", "--bind", "#y=1")
    assert (code, out, err) == (2, "", "error: x is bound twice\n")
    # a bare y names #y, so binding both is binding #y twice
    code, out, err = run(capsys, "eval", struct, formula, "--bind", "x=0", "--bind", "#x=0",
                         "--bind", "y=1", "--bind", "#y=1")
    assert (code, out, err) == (2, "", "error: #y is bound twice\n")


def test_eval_names_every_unbound_variable_in_order(capsys, tmp_path):
    struct, formula = _two_sorts_files(tmp_path)
    code, out, err = run(capsys, "eval", struct, formula)
    assert (code, out, err) == (2, "", "error: unbound free variables #x, x, #y\n")
    code, out, err = run(capsys, "eval", struct, formula, "--bind", "#x=0")
    assert (code, out, err) == (2, "", "error: unbound free variables x, #y\n")


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # sets of variables iterate in an order that varies between processes;
    # no output may depend on it
    struct = tmp_path / "g.struct"
    struct.write_text("vocab E/2\nuniverse 4\nE 0 1\nE 1 2\nE 2 3\nE 3 1\n")
    dtc = tmp_path / "dtc.formula"
    dtc.write_text("[dtc (x, #a), (y, #b) : E(x, y) and #a = #b]((s, #c), (t, #c))\n")
    lreceq = tmp_path / "lreceq.formula"
    lreceq.write_text("exists #r [lreceq x, y, #p : E(x, y) and E(y, x) ; E(x, y) ; "
                      "x = t or #p <= #r](s, #r)\n")
    unbound = tmp_path / "unbound.formula"
    unbound.write_text("exists z (E(x, z) and E(z, y) and #q <= #p)\n")
    expand = ("from limrec.syntax import expand_dtc, parse_formula, pretty; "
              "print(pretty(expand_dtc(parse_formula("
              "'[dtc (x, y), (u, v) : E(x, u) and E(y, v)]((s, t), (a, b)) and "
              "[dtc x, y : exists z (E(x, z) and E(z, y))](s, w)'))))")
    calls = (
        ["-m", "limrec.cli", "eval", str(struct), str(dtc), "--engine", "both",
         "--bind", "s=0", "--bind", "t=3", "--bind", "#c=2"],
        ["-m", "limrec.cli", "eval", str(struct), str(lreceq), "--engine", "both",
         "--bind", "s=0", "--bind", "t=2"],
        ["-m", "limrec.cli", "eval", str(struct), str(unbound)],
        ["-c", expand],
    )
    outputs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"),
                   PYTHONHASHSEED=seed)
        outputs.append([
            subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
            for argv in calls
        ])
    runs = [[(done.returncode, done.stdout, done.stderr) for done in seen] for seen in outputs]
    assert runs[0] == runs[1]
    assert [code for code, _, _ in runs[0]] == [0, 0, 2, 0], runs[0]
    assert runs[0][2][2] == "error: unbound free variables #p, #q, x, y\n"


def test_main_calls_in_one_process_match_separate_processes(capsys, tmp_path):
    # the parser is built once per process; a `--bind` list of one call
    # must not reach the next, which here would turn its error into true
    struct = tmp_path / "g.struct"
    struct.write_text("vocab E/2\nuniverse 2\nE 0 1\n")
    formula = tmp_path / "f.formula"
    formula.write_text("exists y E(x, y)\n")
    calls = (["eval", str(struct), str(formula), "--bind", "x=0"],
             ["eval", str(struct), str(formula)])
    in_process = [run(capsys, *argv) for argv in calls]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    separate = []
    for argv in calls:
        done = subprocess.run([sys.executable, "-m", "limrec.cli", *argv],
                              capture_output=True, text=True, env=env)
        separate.append((done.returncode, done.stdout, done.stderr))
    assert in_process == separate
    assert in_process == [(0, "true\n", ""), (2, "", "error: unbound free variable x\n")]


def test_main_calls_a_handler_rebound_after_the_parser_was_built(monkeypatch, capsys):
    cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_gen", lambda args: seen.append(args.size) or 7)
    assert run(capsys, "gen", "tree", "3") == (7, "", "")
    assert seen == [3]
