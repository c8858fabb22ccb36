"""Benchmark of weylshift's CLI verbs on seeded problem files.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
`src/` and the shift systems are read from `tests/data/`.  This process
never imports weylshift.  It starts SETUPS set-ups (`build.py`), each in
a fresh interpreter, then one measuring process (`measure.py`), which
calls `weylshift.cli.main(argv)` in-process in a closed loop over whole
rounds of the workload's operations.  It then checks every output with
`oracle`.  Times are process CPU seconds normalised by the reference loop
in `refloop`.  The last line of standard output is one JSON object; see
README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import oracle
import refloop
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(ROOT, "tests", "data")
WORK = os.path.join(HERE, ".work", str(os.getpid()))

SETUPS = 5  # setup_s is the median of this many set-ups in one run
SETUP_TIMEOUT_S = 60
MEASURE_SLACK_S = 100  # past --seconds, for the last round and the exit


def child(script: str, *args, timeout: float) -> dict:
    """Run a benchmark script in a fresh interpreter; return the JSON
    object on the last line of its standard output."""
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, script), *map(str, args)],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT,
    )
    if result.returncode != 0:
        raise RuntimeError(f"{script} exited {result.returncode}: {result.stderr.strip()[-2000:]}")
    return json.loads(result.stdout.splitlines()[-1])


def checker(op: dict):
    """The oracle's check of one operation's output: (code, stdout) to
    None or a reason."""
    with open(op["argv"][1], encoding="utf-8") as handle:
        doc = json.load(handle)
    points = oracle.seeded_points(op["points"], doc["m"])
    if op["check"] == "decode":
        return lambda code, out: oracle.check_decode(doc, code, out, points)
    if op["check"] == "classify":
        return lambda code, out: oracle.check_classify(doc, op["configs"], code, out, points)
    expected = oracle.expected_failures(doc, "t", points)
    return lambda code, out: oracle.check_verify(doc, "t", expected, code, out)


class Batch:
    """The measured operations of one run and the oracle's verdicts."""

    def __init__(self, ops: list[dict], results: str):
        self.norm: list[tuple[str, float]] = []  # (class, normalised CPU s) of completed ops
        self.raw: list[float] = []
        self.total_norm = 0.0
        self.attempted = self.failed = 0
        self.wrong: list[str] = []  # outputs the oracle rejects
        self.errors: list[str] = []  # operations that crashed or exited 2
        checks = [checker(op) for op in ops]
        verdicts: dict[tuple[int, int, str], str | None] = {}  # outputs repeat every round
        with open(results, encoding="utf-8") as handle:
            for line in handle:
                index, code, cpu, scale, stdout, stderr = json.loads(line)
                op = ops[index]
                self.attempted += 1
                self.total_norm += cpu * scale
                if code not in (0, 1):
                    self.failed += 1
                    self.errors.append(f"{op['kind']} {' '.join(op['argv'])} (exit {code}): {stderr.strip()}")
                    continue
                key = (index, code, stdout)
                if key not in verdicts:
                    verdicts[key] = checks[index](code, stdout)
                if verdicts[key] is not None:
                    self.wrong.append(f"{op['kind']} {' '.join(op['argv'])}: {verdicts[key]}")
                self.norm.append((op["kind"], cpu * scale))
                self.raw.append(cpu)

    def ops_per_s(self) -> float:
        return len(self.norm) / self.total_norm


def tail(values: list[float]) -> float:
    """The 90th percentile; a batch has at least measure.MIN_OPS values,
    so at least ten lie beyond it."""
    return statistics.quantiles(values, n=10)[-1]


def report(batch: Batch, args, setups: list[dict], summary: dict) -> None:
    times = [t for _, t in batch.norm]
    refs = summary["refs"]
    by_class: dict[str, list[float]] = {}
    for kind, t in batch.norm:
        by_class.setdefault(kind, []).append(t)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{summary['rounds']} rounds, {batch.attempted} operations, {batch.failed} failed")
    print(f"set-up: normalised {[round(s['setup_s'], 4) for s in setups]} s, "
          f"raw CPU {[round(s['raw_s'], 4) for s in setups]} s")
    print(f"reference loop: median {statistics.median(refs) * 1000:.3f} ms CPU "
          f"(nominal {refloop.NOMINAL_S * 1000:.1f} ms), range "
          f"{min(refs) * 1000:.3f}-{max(refs) * 1000:.3f} ms")
    print(f"measuring process: peak RSS {summary['peak_rss_mb']:.2f} MiB, "
          f"{summary['import_rss_mb']:.2f} MiB once weylshift was imported")
    if times:
        print(f"normalised: p50 {statistics.median(times):.5f} s, total {batch.total_norm:.3f} s, "
              f"{batch.ops_per_s():.3f} ops/s")
        print(f"raw CPU:    p50 {statistics.median(batch.raw):.5f} s, total {sum(batch.raw):.3f} s, "
              f"{len(batch.raw) / sum(batch.raw):.3f} ops/s")
    for kind in sorted(by_class, key=lambda k: statistics.median(by_class[k])):
        vals = by_class[kind]
        print(f"  {kind:20s} {len(vals):4d} ops  p50 {statistics.median(vals):.5f} s")
    for line in batch.errors[:10]:
        print(f"FAILED {line}")
    for line in batch.wrong[:10]:
        print(f"WRONG {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "weylshift")) or not os.path.isdir(DATA):
        print(f"error: run from a weylshift source checkout; {SRC}/weylshift or {DATA} is missing",
              file=sys.stderr)
        return 2

    try:
        setups = [child("build.py", args.workload, args.seed, WORK, timeout=SETUP_TIMEOUT_S)
                  for _ in range(SETUPS)]
        manifest = os.path.join(WORK, "manifest.json")
        with open(manifest, encoding="utf-8") as handle:
            ops = json.load(handle)
        results = os.path.join(WORK, "results.jsonl")
        summary = child("measure.py", manifest, args.seconds, args.trace, results,
                        timeout=args.seconds + MEASURE_SLACK_S)
        batch = Batch(ops, results)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    report(batch, args, setups, summary)

    if args.trace:
        repeat = summary["counts_repeat"]
        print(f"trace counts {'repeat exactly' if repeat else 'DIFFER'} across {summary['rounds']} rounds; "
              f"traced ops/s {batch.ops_per_s():.3f}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in summary["layers"].items()}
        correct = not batch.wrong and repeat
    else:
        times = [t for _, t in batch.norm]
        metrics = {
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "op_tail_s": {"value": tail(times), "unit": "s"},
            "ops_per_s": {"value": batch.ops_per_s(), "unit": "1/s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MiB"},
        }
        correct = not batch.wrong
    print(json.dumps({"correct": correct, "attempted": batch.attempted, "failed": batch.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
