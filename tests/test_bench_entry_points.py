"""The names the benchmark reaches in weylshift still exist.

bench/ sits outside the tier-1 test paths, and its tracer rebinds package
functions by name, so a renamed or deleted name would only show up when
the benchmark runs.  These tests read the benchmark's tables and imports.
"""

import ast
import importlib
import importlib.util
import os

import pytest

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", os.path.join(BENCH, "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("modname,fname", [row[:2] for row in SPANS.FUNCTIONS])
def test_traced_functions_exist(modname, fname):
    module = importlib.import_module(f"weylshift.{modname}")
    assert callable(getattr(module, fname, None))


@pytest.mark.parametrize("modname,cname,meth", [row[:3] for row in SPANS.METHODS])
def test_traced_methods_exist(modname, cname, meth):
    cls = getattr(importlib.import_module(f"weylshift.{modname}"), cname)
    assert meth in cls.__dict__  # the tracer rebinds the class's own attribute


def _workload_imports():
    with open(os.path.join(BENCH, "workloads.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "weylshift"
        for alias in node.names
    ]


def test_workloads_import_something_from_weylshift():
    assert _workload_imports()


@pytest.mark.parametrize("modname,name", _workload_imports())
def test_workload_imports_exist(modname, name):
    module = importlib.import_module(modname)
    if not hasattr(module, name):
        importlib.import_module(f"{modname}.{name}")  # a submodule, such as problemfile
