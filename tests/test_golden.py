"""Every benchmark item's output, checked against its frozen golden digest.

The items and the digests belong to `bench/` (`workloads.py`,
`golden.json`); this test runs them through the library imported by the
test session, so a change to any canonical output or verdict fails here
and not only in a benchmark run.
"""

import sys
from pathlib import Path

from limrec import cli, evaluator, intervalcanon, structures, syntax, treelogic

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
try:
    import run
    import workloads
finally:
    sys.path.remove(str(BENCH))

SEEDS = (0, 1, 2, 3)


def test_every_benchmark_output_matches_its_golden_digest(tmp_path):
    # the modules this session imported: run.set_up would re-import limrec
    lib = {"cli": cli, "evaluator": evaluator, "intervalcanon": intervalcanon,
           "structures": structures, "syntax": syntax, "treelogic": treelogic}
    runner = run.make_runner(lib)
    golden = run.load_golden()
    for workload in workloads.BUILDERS:
        for seed in SEEDS:
            items = workloads.build(workload, seed)
            dirs = []
            for i, item in enumerate(items):
                d = tmp_path / f"{workload}-{seed}-{i:03d}"
                d.mkdir()
                for fname, text in item.files.items():
                    (d / fname).write_text(text)
                dirs.append(d)
            loop = run.Loop(items, dirs, runner, golden)
            for i, item in enumerate(items):
                name = f"{workload} seed {seed} {item.name}"
                assert loop.keys[i] in golden, f"{name}: no golden digest"
                _, code, stdout = runner(item, dirs[i])
                failure = loop.verify(i, code, stdout)
                assert failure is None, f"{name}: {failure}"
