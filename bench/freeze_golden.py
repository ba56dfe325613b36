"""Freeze the golden output digests of the benchmark's items.

    python3 bench/freeze_golden.py --seeds 0 1 2 3

Runs every item of every workload once per seed against the library in
`src/` and merges the digests of their exit codes and stdout into
`golden.json`, keyed by each item's command and input bytes.  An item
whose output fails its check is not frozen, and a digest that differs
from one already frozen is reported instead of overwritten; either makes
the script exit with 1 and leave `golden.json` unchanged.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
import workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    golden = run.load_golden()
    run.OUT.mkdir(exist_ok=True)
    problems = 0
    for workload in workloads.BUILDERS:
        for seed in args.seeds:
            items, dirs, workdir, lib = run.set_up(workload, seed)
            try:
                loop = run.Loop(items, dirs, run.make_runner(lib), golden={})
                for i, item in enumerate(items):
                    _, code, stdout = loop.runner(item, dirs[i])
                    failure = loop.verify(i, code, stdout)
                    digest = run.output_digest(code, stdout)
                    old = golden.get(loop.keys[i])
                    if failure:
                        print(f"seed {seed} {item.name}: {failure}")
                        problems += 1
                    elif old is not None and old != digest:
                        print(f"seed {seed} {item.name}: digest {digest} differs from frozen {old}")
                        problems += 1
                    else:
                        golden[loop.keys[i]] = digest
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"{workload} seed {seed}: {len(items)} items", flush=True)
    if problems:
        print(f"{problems} problems; golden.json left unchanged")
        return 1
    run.GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"{len(golden)} digests in {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
