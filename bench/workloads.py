"""The three workloads: which inputs each one generates from a seed, how
each item is run and how its output is checked.

An item is one CLI call (`limrec <argv>`), except the transduction,
which has no CLI command and is run by `run.py` directly.  Arguments
starting with `@` name input files that set-up writes.  Tree and
interval items come in pairs: the second of a pair (its `twin_of` is
set) is a random relabelling of the first; canonical copies of twins must
be byte-equal.  What an item must print is worked out by its `expect`,
which `run.py` calls at the item's first check, after set-up, so that
set-up times only the making of the inputs.  The order of `build()`'s
list is the order the closed loop sends items in; it interleaves
families so that every stretch of the loop mixes small and large inputs.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import checks
import gen

CIRCUIT_FORMULA = (
    "exists #r1 exists #r2 ([lrec x, y, #p : E(x, y) ; "
    "(Pand(x) and count(y ; E(x, y)) = #p) or (Por(x) and not #p = 0) "
    "or (Pnot(x) and #p = 0) or P1(x)](z, (#r1, #r2)) "
    "and forall #r (#r <= #r1 and #r <= #r2))\n"
)
DTC_FORMULA = "[dtc x, y : E(x, y)](s, t)\n"
LRECEQ_FORMULA = "[lreceq x, y, #p : E(x, y) ; not x = x ; x = t](s, #r)\n"

# Transduction of the layered graph onto its two towers' layers: glue
# vertices with equal in- and out-neighbourhoods.
LAYER_GLUE = (
    "forall z ((not E(x, z) or E(y, z)) and (not E(y, z) or E(x, z)) "
    "and (not E(z, x) or E(z, y)) and (not E(z, y) or E(z, x)))"
)

# (family, size) per workload, sent in this order, round-robin over the
# families.  Sizes were picked so that no item takes much over 1.5 s at
# the benchmark's commit and one pass over all items takes 10-13 s: a 20 s
# run then holds three whole passes (`run.MIN_PASSES`) unless a pass takes
# under 6.7 s, a run lasts 30-40 s, and the slowest items, among which
# `latency_tail_s` falls, have fixed shapes.
# The memoized circuit evaluation needs the most memory; its largest,
# fixed-shape item goes first, so that peak memory does not depend on how
# later, random items fragment the heap.
TREE_SPECS = {
    "random": (20, 30, 40, 60),
    "path": (30, 40, 50),
    "star": (18, 20, 22, 24, 26),
    "spider": ((8, 6), (4, 10)),
    "binary": (15, 31, 47),
}
INTERVAL_SPECS = {
    "random": (20, 25, 30, 35, 40),
    "path": (15, 20, 30),
    "band": (15, 20, 25, 30),
    "model-random": (30, 50),
    "model-path": (30,),
    "model-band": (30,),
    "cycle": (4, 8, 16, 24, 32),
}
LOGIC_SPECS = {
    "chain-memo": (70, 30, 40, 50, 60),
    "circuit-memo": (30, 35, 40, 45, 50),
    "chain-stream": (20, 25, 30, 35, 40),
    "circuit-stream": (20, 25, 30, 35, 40),
    "dtc": (60, 90, 120, 150, 180),
    "lreceq": (60, 90, 120, 150, 180),
    "layered": (6, 7),
}


@dataclass
class Item:
    name: str
    family: str
    size: int
    argv: list
    files: dict
    expect: object                  # () -> (exit code, check); check(stdout) -> None or a reason
    twin_of: str | None = None


def _known(code, check):
    return lambda: (code, check)


def _tree_expect(n, edges):
    return 0, functools.partial(checks.check_tree_canon, n=n, input_ahu=checks.ahu_string(n, edges))


def _verdict_expect(oracle, *args):
    want = oracle(*args)
    return (0 if want else 1), functools.partial(_verdict_check, want=want)


def _interleave(groups):
    """Round-robin over the families, each in its listed order."""
    out = []
    depth = max(len(g) for g in groups)
    for i in range(depth):
        for g in groups:
            if i < len(g):
                out.extend(g[i])
    return out


def _size_of(size):
    return size[0] * size[1] if isinstance(size, tuple) else size


def _tree_items(seed):
    groups = []
    for family, sizes in TREE_SPECS.items():
        group = []
        for size in sizes:
            rng = random.Random(f"{seed}:tree:{family}:{size}")
            if family == "random":
                edges = gen.random_tree(size, rng)
            elif family == "spider":
                edges = gen.spider_tree(*size)
            else:
                edges = {"path": gen.path_tree, "star": gen.star_tree,
                         "binary": gen.binary_tree}[family](size)
            n = len(edges) + 1
            name = f"tree/{family}/{_size_of(size)}"
            pair = []
            for tag, es in (("a", edges), ("b", gen.relabel(edges, gen.permutation(n, rng)))):
                pair.append(Item(
                    name=f"{name}/{tag}", family=family, size=_size_of(size),
                    argv=["canon-tree", "@tree.struct"],
                    files={"tree.struct": gen.structure_text(gen.GRAPH_VOCAB, n, es)},
                    expect=functools.partial(_tree_expect, n, es),
                    twin_of=f"{name}/a" if tag == "b" else None,
                ))
            group.append(pair)
        groups.append(group)
    return _interleave(groups)


def _interval_items(seed):
    groups = []
    for family, sizes in INTERVAL_SPECS.items():
        group = []
        for size in sizes:
            rng = random.Random(f"{seed}:interval:{family}:{size}")
            shape = family.split("-")[-1]
            if shape == "random":
                edges = gen.random_interval_graph(size, rng)
            else:
                edges = {"path": gen.path_graph, "band": gen.band_graph,
                         "cycle": gen.cycle_graph}[shape](size)
            name = f"interval/{family}/{size}"
            pair = []
            for tag, es in (("a", edges), ("b", gen.relabel(edges, gen.permutation(size, rng)))):
                if family == "cycle":
                    argv, code = ["check", "@graph.struct"], 3
                    check = _empty_stdout
                elif family.startswith("model-"):
                    argv, code = ["check", "@graph.struct"], 0
                    check = functools.partial(checks.check_interval_model, n=size, edges=es)
                else:
                    argv, code = ["canon-interval", "@graph.struct"], 0
                    check = functools.partial(checks.check_interval_canon, n=size, edges=es)
                pair.append(Item(
                    name=f"{name}/{tag}", family=family, size=size, argv=argv,
                    files={"graph.struct": gen.structure_text(gen.GRAPH_VOCAB, size, es)},
                    expect=_known(code, check),
                    twin_of=f"{name}/a" if tag == "b" else None,
                ))
            group.append(pair)
        groups.append(group)
    return _interleave(groups)


def _empty_stdout(stdout):
    return None if stdout == "" else "a rejection printed a model"


def _verdict_check(stdout, want):
    expected = "true\n" if want else "false\n"
    return None if stdout == expected else f"printed {stdout!r}, expected {expected!r}"


def _logic_items(seed):
    groups = []
    for family, sizes in LOGIC_SPECS.items():
        group = []
        for i, size in enumerate(sizes):
            rng = random.Random(f"{seed}:logic:{family}:{i}:{size}")
            name = f"logic/{family}/{size}" + (f"/{i}" if family in ("dtc", "lreceq") else "")
            if family == "layered":
                item = Item(
                    name=name, family=family, size=size, argv=["transduce", "@graph.struct"],
                    files={"graph.struct": gen.structure_text(
                        gen.GRAPH_VOCAB, 2 * size * size, gen.layered_graph(size))},
                    expect=_known(0, functools.partial(checks.check_two_paths, n=size)),
                )
            elif family in ("dtc", "lreceq"):
                # Even items query a target known to be reachable, odd
                # items a random one, so both verdicts occur.
                if family == "dtc":
                    edges = gen.functional_digraph(size, rng)
                    s = t = rng.randrange(size)
                    if i % 2 == 0:  # follow unique out-edges for a while
                        outs = {}
                        for a, b in edges:
                            outs.setdefault(a, []).append(b)
                        for _ in range(rng.randint(1, size // 3)):
                            if len(outs[t]) != 1:
                                break
                            t = outs[t][0]
                    else:
                        t = rng.randrange(size)
                    expect = functools.partial(_verdict_expect, checks.deterministic_reach,
                                               edges, s, t)
                    formula, binds = DTC_FORMULA, []
                else:
                    edges = gen.sparse_graph(size, rng)
                    s = rng.randrange(size)
                    if i % 2 == 0:
                        t = rng.choice(sorted(checks.component(size, edges, s)))
                    else:
                        t = rng.randrange(size)
                    expect = functools.partial(_verdict_expect, checks.connected, size, edges, s, t)
                    formula, binds = LRECEQ_FORMULA, ["--bind", "r=1"]
                item = Item(
                    name=name, family=family, size=size,
                    argv=["eval", "@graph.struct", "@query.formula",
                          "--bind", f"s={s}", "--bind", f"t={t}"] + binds,
                    files={"graph.struct": gen.structure_text(gen.GRAPH_VOCAB, size, edges),
                           "query.formula": formula},
                    expect=expect,
                )
            else:
                if family.startswith("chain"):
                    edges, kinds = gen.not_chain(size, "P1" if size % 20 else "P0")
                else:
                    edges, kinds = gen.random_circuit(size, rng)
                engine = family.split("-")[1]
                item = Item(
                    name=name, family=family, size=size,
                    argv=["eval", "@circuit.struct", "@circuit.formula", "--bind", "z=0",
                          "--engine", engine],
                    files={"circuit.struct": gen.circuit_text(size, edges, kinds),
                           "circuit.formula": CIRCUIT_FORMULA},
                    expect=functools.partial(_verdict_expect, checks.circuit_value,
                                             size, edges, kinds, 0),
                )
            group.append([item])
        groups.append(group)
    return _interleave(groups)


BUILDERS = {"tree_canon": _tree_items, "interval_canon": _interval_items, "logic_eval": _logic_items}


def build(workload: str, seed: int) -> list:
    """All items of one workload for one seed, in sending order."""
    return BUILDERS[workload](seed)
