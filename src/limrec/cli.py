"""Command-line front end.

Exit codes: 0 true/success, 1 false/negative verdict, 2 usage or input
error, 3 recognition failure (input outside the required graph class).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import LimrecError, RecognitionError
from .evaluator import evaluate
from .intervalcanon import Graph, interval_canon, interval_model
from .structures import (
    Structure, generate_layered_graph, generate_random_circuit,
    generate_random_interval_graph, generate_random_tree,
)
from .syntax import NUMBER, free_variables, nvar, parse_formula, svar
from .treelogic import DirectedTree, _circuit_report, tree_canon


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_structure(path: str) -> Structure:
    return Structure.parse(_read(path))


def _load_tree(path: str) -> DirectedTree:
    text = _read(path)
    stripped = text.strip()
    if stripped.startswith("vocab"):
        return DirectedTree.from_structure(Structure.parse(text))
    return DirectedTree.from_parent_line(stripped)


def _parse_bindings(structure: Structure, formula, pairs):
    """The assignment given by `name=value` bindings: `#name` names the
    number variable, a bare name the structure variable of that name or,
    when there is none, the number variable."""
    free = free_variables(formula)
    alpha = {}
    for item in pairs or ():
        if "=" not in item:
            raise LimrecError(f"binding {item!r} must look like name=value")
        name, value = item.split("=", 1)
        if name.startswith("#"):
            var = nvar(name[1:])
        else:
            var = svar(name)
            if var not in free:
                var = nvar(name)
        if var not in free:
            raise LimrecError(f"{name!r} is not a free variable of the formula")
        if var in alpha:
            raise LimrecError(f"{var!r} is bound twice")
        if var.sort == NUMBER:
            try:
                alpha[var] = int(value)
            except ValueError:
                raise LimrecError(f"value {value!r} for {var!r} is not a number") from None
        else:
            alpha[var] = structure.element_index(value)
    return alpha


def _emit_canon(n, edges):
    print(f"n {n}")
    for a, b in edges:
        print(f"{a} {b}")


def cmd_eval(args) -> int:
    structure = _load_structure(args.structure)
    formula = parse_formula(_read(args.formula))
    alpha = _parse_bindings(structure, formula, args.bind)
    verdict = evaluate(structure, alpha, formula, engine=args.engine)
    print("true" if verdict else "false")
    return 0 if verdict else 1


def cmd_canon_tree(args) -> int:
    tree = _load_tree(args.graph)
    edges = tree_canon(tree)
    _emit_canon(tree.n, edges)
    return 0


def cmd_canon_interval(args) -> int:
    graph = Graph.from_structure(_load_structure(args.graph))
    n, edges = interval_canon(graph)
    _emit_canon(n, edges)
    return 0


def cmd_iso(args) -> int:
    if args.kind == "tree":
        left, right = _load_tree(args.left), _load_tree(args.right)
        same = left.n == right.n and tree_canon(left) == tree_canon(right)
    else:
        left = Graph.from_structure(_load_structure(args.left))
        right = Graph.from_structure(_load_structure(args.right))
        same = interval_canon(left) == interval_canon(right)
    print("isomorphic" if same else "not isomorphic")
    return 0 if same else 1


def cmd_check(args) -> int:
    if args.kind == "tree":
        tree = _load_tree(args.graph)
        print(f"directed tree with {tree.n} vertices, root {tree.root}")
        return 0
    if args.kind == "circuit":
        structure = _load_structure(args.graph)
        worst, verdict = _circuit_report(structure)
        print(f"circuit ok, worst path product {worst}, value {str(verdict).lower()}")
        return 0
    structure = _load_structure(args.graph)
    for v, l, r in interval_model(Graph.from_structure(structure)):
        print(f"{structure.element_name(v)} {l} {r}")
    return 0


def cmd_gen(args) -> int:
    if args.family == "layered":
        structure = generate_layered_graph(args.size)
    elif args.family == "tree":
        structure = generate_random_tree(args.size, seed=args.seed)
    elif args.family == "interval":
        structure = generate_random_interval_graph(args.size, seed=args.seed)
    else:
        structure = generate_random_circuit(args.size, seed=args.seed)
    sys.stdout.write(structure.serialize())
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every `main`
    call: parsing leaves it unchanged, and each parse starts from fresh
    defaults."""
    parser = argparse.ArgumentParser(
        prog="limrec",
        description="limited-recursion logic evaluator and graph canonisers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a formula on a structure")
    p_eval.add_argument("structure")
    p_eval.add_argument("formula")
    p_eval.add_argument("--bind", action="append", metavar="NAME=VALUE")
    p_eval.add_argument("--engine", choices=("memo", "stream", "both"), default="memo")

    p_ct = sub.add_parser("canon-tree", help="canonical copy of a directed tree")
    p_ct.add_argument("graph")

    p_ci = sub.add_parser("canon-interval", help="canonical copy of an interval graph")
    p_ci.add_argument("graph")

    p_iso = sub.add_parser("iso", help="isomorphism test via canon comparison")
    p_iso.add_argument("--kind", choices=("tree", "interval"), required=True)
    p_iso.add_argument("left")
    p_iso.add_argument("right")

    p_check = sub.add_parser("check", help="recognise the input class; for "
                             "interval graphs print a verified model")
    p_check.add_argument("--kind", choices=("tree", "interval", "circuit"),
                         default="interval")
    p_check.add_argument("graph")

    p_gen = sub.add_parser("gen", help="deterministic test-data generators")
    p_gen.add_argument("family", choices=("layered", "tree", "interval", "circuit"))
    p_gen.add_argument("size", type=int)
    p_gen.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # read from the module's names at each call, not stored in the shared
    # parser, so a cmd_* function rebound after the parser was built is used
    handler = {
        "eval": cmd_eval, "canon-tree": cmd_canon_tree, "canon-interval": cmd_canon_interval,
        "iso": cmd_iso, "check": cmd_check, "gen": cmd_gen,
    }[args.command]
    try:
        return handler(args)
    except RecognitionError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        if exc.certificate is not None:
            print(f"certificate: {exc.certificate!r}", file=sys.stderr)
        return 3
    except (LimrecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
