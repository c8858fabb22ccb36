"""One set-up of a benchmark run, in an interpreter of its own.

    python3 bench/build.py WORKLOAD SEED WORKDIR

Imports `weylshift.cli` from `src/`, builds the workload's problem files
from the seed into WORKDIR (emptied first), and writes the operations to
WORKDIR/manifest.json.  Prints the set-up's normalised and raw CPU
seconds as one JSON object.  `run.py` starts it; a fresh interpreter
makes every set-up import the package from scratch.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import sys
import time

import refloop
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(ROOT, "tests", "data")


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    ref_before = refloop.reference_cpu_s()
    start = time.process_time()
    importlib.import_module("weylshift.cli")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    sysdocs = {name: workloads.system_doc(DATA, name) for name in (workloads.STAIRCASE, workloads.GL3)}
    ops = workloads.BY_NAME[workload](sysdocs, seed, workdir)
    raw = time.process_time() - start
    setup_s = refloop.normalised(raw, ref_before, refloop.reference_cpu_s())
    with open(os.path.join(workdir, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(ops, handle)
    print(json.dumps({"setup_s": setup_s, "raw_s": raw}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
