"""Closed-loop measurement of CLI operations, in a process of its own.

    python3 bench/measure.py MANIFEST SECONDS TRACE RESULTS

Imports `weylshift.cli` from `src/` and calls `main(argv)` for the
manifest's operations, one after another from one thread, in whole
rounds until SECONDS have passed and at least MIN_OPS operations ran.
Each operation's process CPU seconds are timed, and the reference loop
is read after each one.  One JSON line per operation goes to RESULTS:
`[index, exit code or null, CPU s, scale, stdout, stderr]`, where scale
turns CPU seconds into normalised seconds.  The last line of standard
output is a JSON summary: rounds, reference readings, peak RSS (and the
peak once the package is imported), and with TRACE 1 the per-layer
metrics.

`run.py` starts it and checks the outputs.  Nothing else lives in this
process, so its peak RSS is the interpreter's, the package's and the
operations'.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback
from collections import Counter

import refloop

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_OPS = 100  # so at least ten operations lie beyond the 90th percentile


def call(main, argv: list[str]) -> tuple[int | None, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit):  # a crash is a failed operation
        code = None
        err.write(traceback.format_exc(limit=-3))
    cpu = time.process_time() - start
    return code, out.getvalue(), err.getvalue(), cpu


def main(argv: list[str]) -> int:
    manifest, seconds, trace, results = argv[0], float(argv[1]), argv[2] == "1", argv[3]
    with open(manifest, encoding="utf-8") as handle:
        ops = [op["argv"] for op in json.load(handle)]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    cli = importlib.import_module("weylshift.cli")
    import_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run_main, tracer = cli.main, None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        run_main = tracer.wrap("cli", cli.main)
    layer_self: Counter = Counter()
    layer_total: Counter = Counter()
    first_counts, repeat = None, True

    refs = [refloop.reference_cpu_s()]
    attempted = rounds = 0
    start = time.perf_counter()
    with open(results, "w", encoding="utf-8") as sink:
        while True:
            for index, op in enumerate(ops):
                if tracer is not None:
                    self_before, total_before = dict(tracer.self_s), dict(tracer.total_s)
                code, stdout, stderr, cpu = call(run_main, op)
                refs.append(refloop.reference_cpu_s())
                scale = refloop.normalised(1.0, refs[-2], refs[-1])
                attempted += 1
                sink.write(json.dumps([index, code, cpu, scale, stdout, stderr[-400:]]) + "\n")
                if tracer is not None:
                    for layer, value in tracer.self_s.items():
                        layer_self[layer] += (value - self_before.get(layer, 0.0)) * scale
                    for layer, value in tracer.total_s.items():
                        layer_total[layer] += (value - total_before.get(layer, 0.0)) * scale
            rounds += 1
            if tracer is not None:
                if first_counts is None:
                    first_counts = Counter(tracer.counts)
                repeat = repeat and tracer.counts == first_counts
                tracer.counts.clear()
            if time.perf_counter() - start >= seconds and attempted >= MIN_OPS:
                break

    summary = {
        "rounds": rounds,
        "refs": refs,
        "import_rss_mb": import_rss_mb,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        per_round = {k: v / rounds for k, v in layer_self.items()}
        totals = {k: v / rounds for k, v in layer_total.items()}
        summary["layers"] = spans.layer_metrics(per_round, totals, first_counts)
        summary["counts_repeat"] = repeat
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
