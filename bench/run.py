"""Run one benchmark workload against the library in `src/` and print its
metrics.

    python3 bench/run.py --workload tree_canon --seed 1 --seconds 20 --trace 0

Set-up generates the workload's inputs from the seed, writes them to
files under `.bench_out/` and imports `limrec`; it is repeated
SETUP_REPEATS times and timed as `setup_s`.  Then one closed-loop client
sends items one at a time through `limrec.cli.main(argv)` in this
process, with stdout captured, in whole passes over the items until
`--seconds` have passed and at least MIN_PASSES passes were sent, and
checks every output (see `workloads.py` and `checks.py`) and its frozen
golden digest (`golden.json`).

With `--trace 1` the run instead sends a fixed subset of the items twice,
first plain and then with the library's functions wrapped by `tracing.py`,
and reports the per-layer metrics of the traced pass plus the tracing
overhead.

A full report (environment, manifest of inputs, every item's latency and
check result) goes to `.bench_out/`; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import gen
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"
SETUP_REPEATS = 11
# A run sends at least this many whole passes, so that the items beyond
# the tail percentile come from the same few slowest items whether the
# machine runs fast or slow.
MIN_PASSES = 3
TAIL_BEYOND = 10  # items beyond the tail percentile


def import_limrec():
    """Import the library afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "limrec" or m.startswith("limrec.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(f"limrec.{name}")
            for name in ("cli", "evaluator", "intervalcanon", "structures", "syntax", "treelogic")}


def set_up(workload: str, seed: int):
    """Generate the items, write their files and import the library."""
    items = workloads.build(workload, seed)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    dirs = []
    for i, item in enumerate(items):
        d = workdir / f"{i:03d}"
        d.mkdir()
        for fname, text in item.files.items():
            (d / fname).write_text(text)
        dirs.append(d)
    lib = import_limrec()
    return items, dirs, workdir, lib


def make_runner(lib):
    """`run(item, dir) -> (latency_s, exit_code, stdout)`.  Library
    functions are looked up at call time, so trace wrappers apply."""
    syntax, evaluator, structures = lib["syntax"], lib["evaluator"], lib["structures"]
    x, y = syntax.svar("x"), syntax.svar("y")
    glue = evaluator.Transduction(
        u=(x,), v=(y,), theta_v=syntax.parse_formula("x = x"),
        theta_approx=syntax.parse_formula(workloads.LAYER_GLUE),
        relations=(("E", syntax.parse_formula("E(x, y)"), ((x,), (y,))),),
    )

    def transduce(path):
        structure = structures.Structure.parse(Path(path).read_text())
        print(evaluator.apply_transduction(glue, structure).serialize(), end="")
        return 0

    def run(item, d):
        argv = [str(d / a[1:]) if a.startswith("@") else a for a in item.argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            if argv[0] == "transduce":
                code = transduce(argv[1])
            else:
                code = lib["cli"].main(argv)
            latency = time.perf_counter() - start
        return latency, code, out.getvalue()

    return run


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def item_key(item) -> str:
    """Identifies an item by its command and the exact bytes of its inputs."""
    files = {name: sha(text) for name, text in sorted(item.files.items())}
    return sha(json.dumps([item.argv, files]))[:32]


def output_digest(code: int, stdout: str) -> str:
    return sha(f"{code}\n{stdout}")[:32]


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


class Loop:
    """Closed loop over the items: one client, one item at a time, each
    output checked before the next item is sent."""

    def __init__(self, items, dirs, runner, golden):
        self.items, self.dirs, self.runner, self.golden = items, dirs, runner, golden
        self.keys = [item_key(item) for item in items]
        self.expected = {}  # item index -> (exit code, check), made at its first check
        self.first_output = {}
        self.golden_checked = set()

    def send(self, i):
        item = self.items[i]
        # A CLI call gets a fresh process; here, start each item with no
        # garbage left by the previous one (recursion graphs and their
        # contexts form reference cycles), so neither its memory nor a
        # late collection lands on the next item.
        gc.collect()
        try:
            latency, code, stdout = self.runner(item, self.dirs[i])
        except Exception as exc:  # a crash is a failed item, not a failed run
            return {"item": item.name, "latency_s": None, "failure": f"raised {exc!r}"}
        return {"item": item.name, "latency_s": latency, "code": code,
                "failure": self.verify(i, code, stdout), "peak_rss_mb": peak_rss_mb()}

    def verify(self, i, code, stdout):
        item = self.items[i]
        if i not in self.expected:
            self.expected[i] = item.expect()
        expect_code, check = self.expected[i]
        if code != expect_code:
            return f"exit {code}, expected {expect_code}"
        try:
            reason = check(stdout)
        except (checks.CheckError, ValueError, KeyError, IndexError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason:
            return reason
        first = self.first_output.setdefault(item.name, stdout)
        if first != stdout:
            return "output differs from this item's earlier output"
        twin = self.first_output.get(item.twin_of)
        if twin is not None and item.argv[0].startswith("canon") and twin != stdout:
            return "output differs from its relabelled twin's"
        want = self.golden.get(self.keys[i])
        if want is not None:
            self.golden_checked.add(i)
            if want != output_digest(code, stdout):
                return "output differs from the golden digest"
        return None

    def run(self, order, seconds=0.0, min_passes=1):
        """Send whole passes over `order` until `seconds` have passed and
        at least `min_passes` passes were sent.

        Whole passes keep the mix of items the same in every run, so a
        slower or faster run does not shift its latency quantiles."""
        records = []
        start = time.perf_counter()
        while True:
            records.extend(self.send(i) for i in order)
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and len(records) >= min_passes * len(order):
                return records, elapsed


def summarise(records, wall, pass_size):
    """Throughput and latency quantiles.  Throughput counts only the
    items' own time, not the collections and checks between them.  The
    tail is the highest percentile with at least TAIL_BEYOND items of the
    run beyond it."""
    lat = sorted(r["latency_s"] for r in records if r["latency_s"] is not None)
    tail = max(len(lat) - TAIL_BEYOND - 1, 0)
    return {
        "items": len(records),
        "passes": len(records) // pass_size,
        "wall_s": wall,
        "items_per_s": len(lat) / sum(lat) if lat else float("nan"),
        "latency_p50_s": statistics.median(lat) if lat else float("nan"),
        "latency_tail_s": lat[tail] if lat else float("nan"),
        "latency_tail_percentile": round(100 * (tail + 1) / len(lat), 1) if lat else None,
        "failed": sum(1 for r in records if r["failure"]),
    }


def environment():
    commit = "unknown"  # a checkout without .git is identified by source_sha256
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted((SRC / "limrec").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
    }


def manifest(items, keys, golden):
    return [
        {
            "item": item.name, "family": item.family, "requested_size": item.size,
            "actual_size": gen.actual_size(item.family, next(iter(item.files.values()))),
            "input_sha256": {name: sha(text) for name, text in sorted(item.files.items())},
            "key": key, "golden": golden.get(key),
        }
        for item, key in zip(items, keys)
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "limrec" / "cli.py").is_file():
        print(f"error: no limrec sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    OUT.mkdir(exist_ok=True)
    env = environment()

    setup_times = []
    workdir = None
    for _ in range(SETUP_REPEATS):
        if workdir is not None:
            shutil.rmtree(workdir)
        start = time.perf_counter()
        items, dirs, workdir, lib = set_up(args.workload, args.seed)
        setup_times.append(time.perf_counter() - start)
    try:
        golden = load_golden()
        loop = Loop(items, dirs, make_runner(lib), golden)
        report = {"args": vars(args), "environment": env, "setup_s": setup_times,
                  "manifest": manifest(items, loop.keys, golden)}
        if args.trace:
            import tracing

            order = [i for i, item in enumerate(items) if item.twin_of is None]
            plain_records, plain_wall = loop.run(order)
            tracer = tracing.Tracer(lib)
            plain_runner, loop.runner = loop.runner, tracer.wrap_runner(loop.runner)
            with tracer.installed():
                traced_records, traced_wall = loop.run(order)
            loop.runner = plain_runner
            records = plain_records + traced_records
            plain = summarise(plain_records, plain_wall, len(order))
            traced = summarise(traced_records, traced_wall, len(order))
            values = tracer.metrics()
            values["trace.untraced_items_per_s"] = plain["items_per_s"]
            values["trace.items_per_s"] = traced["items_per_s"]
            values["trace.overhead_ratio"] = plain["items_per_s"] / traced["items_per_s"]
            report["untraced"], report["traced"] = plain, traced
            spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.tsv"
            tracer.write_spans(spans_path, [items[i].name for i in order])
            report["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            records, wall = loop.run(list(range(len(items))), args.seconds, MIN_PASSES)
            summary = summarise(records, wall, len(items))
            report["summary"] = summary
            values = dict(summary, peak_rss_mb=peak_rss_mb(), setup_s=statistics.median(setup_times))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in records if r["failure"])
    report.update({
        "records": records,
        "failed_ratio": failed / len(records),
        "golden_checked_items": len(loop.golden_checked),
        "golden_unknown_items": len(items) - sum(1 for k in loop.keys if k in golden),
        "loadavg_end": os.getloadavg(),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    })
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1))
    for r in records:
        if r["failure"]:
            print(f"FAILED {r['item']}: {r['failure']}")
    print(f"{len(records)} items, {failed} failed, failed_ratio {failed / len(records):.3f}; "
          f"report in {report_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
