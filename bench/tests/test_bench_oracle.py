"""Tests of the benchmark's own oracle and reference loop.

Run from the repository root:  python3 -m pytest bench/tests
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
DATA = os.path.join(ROOT, "tests", "data")
sys.path.insert(0, BENCH)

import oracle  # noqa: E402


def _doc(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as handle:
        return json.load(handle)


def _expected(file, tuple_name):
    doc = _doc(file)
    return oracle.expected_failures(doc, tuple_name, oracle.seeded_points(7, doc["m"]))


@pytest.mark.parametrize("file, tuple_name", [("gl3.json", "gl3_sym"), ("staircase.json", "main_monic")])
def test_oracle_passes_solutions(file, tuple_name):
    assert _expected(file, tuple_name) == ("sym", set())


def test_oracle_fails_gl3_alt_at_binary_1_2():
    form, failures = _expected("gl3.json", "gl3_alt")
    assert form == "sym"
    assert ("binary", (1, 2)) in failures


def test_oracle_agrees_with_cli_on_gl3_alt():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from weylshift.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", os.path.join(DATA, "gl3.json"), "--tuple", "gl3_alt"])
    doc = _doc("gl3.json")
    expected = _expected("gl3.json", "gl3_alt")
    assert oracle.check_verify(doc, "gl3_alt", expected, code, out.getvalue()) is None
    assert oracle.check_verify(doc, "gl3_alt", ("sym", set()), code, out.getvalue()) is not None


@pytest.mark.parametrize("module, call", [("refloop", "refloop.reference_loop()"), ("oracle", "oracle.seeded_points(1, 2)")])
def test_module_imports_nothing_from_weylshift(module, call):
    code = (
        f"import sys; sys.path.insert(0, {BENCH!r}); import {module}; {call}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'weylshift'))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"
