"""One round of every benchmark workload, checked by the benchmark's oracle.

Each workload is built at seed 1 with bench/workloads.py, and each of its
operations runs once through weylshift.cli.main, as bench/measure.py runs
them.  Every exit code must be 0 or 1, and run.checker, which checks
outputs with bench/oracle.py without importing weylshift, must accept
every output.  A change that breaks what the benchmark builds or reads
fails here, before the benchmark itself runs.
"""

import contextlib
import importlib.util
import io
import os
import sys

import pytest

from conftest import DATA
from weylshift.cli import main

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def _load(name):
    """bench/<name>.py as a module; its own imports of oracle, refloop and
    workloads resolve in bench/."""
    sys.path.insert(0, BENCH)
    try:
        spec = importlib.util.spec_from_file_location(
            f"bench_{name}", os.path.join(BENCH, f"{name}.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(BENCH)
    return module


WORKLOADS = _load("workloads")
RUN = _load("run")


@pytest.mark.parametrize("workload", sorted(WORKLOADS.BY_NAME))
def test_one_round_passes_the_oracle(workload, tmp_path):
    sysdocs = {
        name: WORKLOADS.system_doc(DATA, name) for name in (WORKLOADS.STAIRCASE, WORKLOADS.GL3)
    }
    ops = WORKLOADS.BY_NAME[workload](sysdocs, 1, str(tmp_path))
    assert ops
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(op["argv"])
        assert code in (0, 1), (op["kind"], err.getvalue())
        assert RUN.checker(op)(code, out.getvalue()) is None, op["kind"]
