"""Every name a package module imports is used in that module, every
class is defined in one module only, importing the CLI pulls in no
networking or XML modules, and the console script names a callable.

`__init__.py` is skipped: it imports names to re-export them.  Quoted
annotations count as uses of the names they mention.
"""

import ast
import importlib
import os
import re
import subprocess
import sys

import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "weylshift")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py") and f != "__init__.py")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


def _imported_names(tree) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


@pytest.mark.parametrize("filename", MODULES)
def test_every_import_is_used(filename):
    with open(os.path.join(PACKAGE, filename), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    used = _used_names(tree)
    assert [name for name in _imported_names(tree) if name not in used] == []


def test_every_class_is_defined_once():
    homes = {}
    for filename in MODULES:
        with open(os.path.join(PACKAGE, filename), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                homes.setdefault(node.name, []).append(filename)
    assert {name: files for name, files in homes.items() if len(files) > 1} == {}
    assert homes["FactoredPoly"] == ["poly.py"]
    orbital, poly = (importlib.import_module(f"weylshift.{name}") for name in ("orbital", "poly"))
    assert orbital.FactoredPoly is poly.FactoredPoly  # the benchmark imports it from orbital


def test_cli_import_pulls_in_no_network_or_xml_modules():
    # xml.sax.saxutils alone imports urllib.request, and with it http,
    # email, socket and ssl: about 7 MiB and 50 ms of CPU in every run
    probe = (
        "import sys; before = set(sys.modules); import weylshift.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    added = {name.split(".")[0] for name in out.stdout.split()}
    assert "weylshift" in added
    assert added & {"ssl", "_ssl", "socket", "_socket", "http", "email", "xml"} == set()


def test_console_script_resolves_to_a_callable():
    # a regex, not tomllib: Python 3.10 has no TOML reader
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject, encoding="utf-8") as handle:
        text = handle.read()
    match = re.search(r'^\[project\.scripts\]\nweylshift = "([\w.]+):(\w+)"$', text, re.M)
    assert match, "no weylshift entry under [project.scripts]"
    module, attr = match.groups()
    assert callable(getattr(importlib.import_module(module), attr))
