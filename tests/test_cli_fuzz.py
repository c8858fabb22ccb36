"""Fuzzing of the command line: every verb on mutated problem files and
random expression strings ends with exit 0, 1 or 2 in bounded time, and
never with a traceback.

Inputs stay small: constants below 10^6, degrees of at most 6 and at most
5 loops.  Factoring still finds rational roots by trial division up to the
square root of a constant, so larger constants are out of scope here.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
import time
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import DATA
from weylshift.cli import main
from weylshift.parser import ParseError, parse_poly
from weylshift.poly import Poly, format_poly

DOCS = {}
for _name in sorted(os.listdir(DATA)):
    with open(os.path.join(DATA, _name), encoding="utf-8") as _handle:
        DOCS[_name] = json.load(_handle)

SECONDS_PER_CASE = 3.0
MAX_CONSTANT = 10**6
MAX_DEGREE = 6

# the files each verb has data for; any file is drawn too
_FILES = {"equiv": ["equiv_bad.json", "equiv_ok.json"], "multiquiver": ["gl3.json"]}
_DEFAULT_FILES = ["gl3.json", "staircase.json"]
# generators with a positive rank-1 stabilizer on a pair, by file
_ORBITS = {
    "gl3.json": [("u1", "1", "2"), ("-2*u1 + 1/2", "1", "2"), ("u2", "2", "3"), ("u1 + u2", "1", "3")],
    "staircase.json": [("u1 + u2 + u3", "1", "2"), ("u1^2 + u2 + u3", "1", "2")],
}
_TOKENS = ["u1", "u2", "u3", "u0", "u", "0", "1", "2", "7", "1/2", "2/0",
           "+", "-", "*", "^", "(", ")", "/", " ", "x", "."]


def _small(text: str) -> bool:
    """Whether text, if it parses, has small degree and small constants."""
    try:
        p = parse_poly(text, 3)
    except ParseError:
        return True
    return p.degree() <= MAX_DEGREE and all(
        abs(c.numerator) < MAX_CONSTANT and c.denominator < MAX_CONSTANT for _, c in p.items()
    )


@st.composite
def _canonical(draw, nvars=None):
    nvars = nvars or draw(st.integers(1, 3))
    coeff = st.builds(Fraction, st.integers(1 - MAX_CONSTANT, MAX_CONSTANT - 1), st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    return format_poly(Poly(nvars, draw(st.dictionaries(exps, coeff, max_size=4))))


expressions = st.one_of(
    _canonical(),
    st.lists(st.sampled_from(_TOKENS), max_size=10).map("".join),
).filter(_small)

_small_ints = st.integers(-6, 6)
values = st.one_of(
    _small_ints,
    expressions,
    st.sampled_from([None, True, 1.5, [], {}, "sym", "nonsym", "factored", "-3/4"]),
    st.lists(_small_ints, max_size=4),
    st.lists(expressions, max_size=3),
)


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for index, value in enumerate(obj):
            yield from _paths(value, prefix + (index,))


def _like(value, nvars):
    """Values of the same kind as value, which keep more documents valid."""
    if isinstance(value, bool) or value is None:
        return values
    if isinstance(value, int):
        return _small_ints
    if isinstance(value, str):
        return st.one_of(_canonical(nvars).filter(_small), expressions)
    if isinstance(value, list) and value and all(isinstance(v, int) for v in value):
        return st.lists(_small_ints, min_size=len(value), max_size=len(value))
    return values


def _mutate(draw, doc):
    path = draw(st.sampled_from(list(_paths(doc))))
    op = draw(st.sampled_from(["replace", "replace", "delete", "duplicate"]))
    if not path:
        return draw(values) if op == "replace" else doc
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    if op == "replace":
        m = doc.get("m") if isinstance(doc, dict) else None
        nvars = m if type(m) is int and 1 <= m <= 3 else None
        parent[last] = draw(st.one_of(_like(parent[last], nvars), values))
    elif op == "delete":
        del parent[last]
    elif isinstance(parent, dict):
        parent[f"{last}2"] = copy.deepcopy(parent[last])
    else:
        parent.append(copy.deepcopy(parent[last]))
    return doc


@st.composite
def cases(draw):
    """A problem document and the argv of one verb, with FILE for its path."""
    verb = draw(st.sampled_from(["verify", "symmetrize", "decompose", "encode", "decode",
                                 "classify", "multiquiver", "render", "equiv", "gen-random"]))
    files = _FILES.get(verb, _DEFAULT_FILES)
    # two draws in three from the files the verb has data for
    filename = draw(st.one_of(*[st.sampled_from(files)] * 2, st.sampled_from(sorted(DOCS))))
    doc = copy.deepcopy(DOCS[filename])
    names = list(doc.get("configs" if verb in ("decode", "render") else "tuples", {}))
    name = st.sampled_from(names * 2 + [None, "missing"])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2]))):
        doc = _mutate(draw, doc)
    if verb == "multiquiver":
        return doc, ["multiquiver", "--beta", "FILE"]
    argv = [verb, "FILE"]
    if verb == "gen-random":
        random_orbit = (draw(expressions), *(str(draw(st.integers(0, 5))) for _ in range(2)))
        orbit, *pair = draw(st.sampled_from(_ORBITS.get(filename, []) * 2 + [random_orbit]))
        argv += [f"--orbit={orbit}", "--pair", *pair,
                 "--loops", str(draw(st.integers(0, 5))), "--seed", str(draw(st.integers(0, 9)))]
    elif verb != "equiv":
        option = "--config" if verb in ("decode", "render") else "--tuple"
        picked = draw(name)
        argv += [] if picked is None else [option, picked]
        if verb == "verify" and draw(st.booleans()):
            argv += ["--form", draw(st.sampled_from(["sym", "nonsym"]))]
    return doc, argv


@settings(max_examples=400, derandomize=True, deadline=None)
@given(cases())
def test_every_verb_exits_zero_one_or_two(case):
    doc, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        argv = [path if a == "FILE" else a for a in argv]
        output = os.path.join(tmp, "out")
        if argv[0] not in ("verify", "decompose", "multiquiver", "equiv"):
            argv += ["-o", output]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        elapsed = time.perf_counter() - start
        wrote = os.path.exists(output)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert elapsed < SECONDS_PER_CASE, argv
    # unusable input leaves no partial report behind
    if code == 2:
        assert out.getvalue() == "", argv
        assert not wrote, argv
