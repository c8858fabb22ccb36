"""Per-layer tracing from outside the package.

`install` rebinds public functions and Poly methods, in every weylshift
module that holds them, to wrappers that record a span per call.  The
innermost open span is each new span's parent; when a span closes its
duration is added to its parent's child time, so a layer's self time is
its spans' durations minus the time their children cover.  Counters are
taken from the same calls' arguments and results.  Spans are timed with
perf_counter, in wall seconds, so they include descheduled time, and are
kept as per-layer sums in memory.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from math import comb


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()

    def wrap(self, layer: str, fn, count=None):
        """A wrapper of fn recording a span of `layer`; count(counts, args,
        result) adds to the counters."""
        stack, self_s, total_s, counts = self.stack, self.self_s, self.total_s, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                self_s[layer] += took - child[0]
                total_s[layer] += took
                if stack:
                    stack[-1][0] += took
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _calls(name):
    def count(counts, args, result):
        counts[name] += 1

    return count


def _hits(calls, hits):
    """Count calls, and calls whose result is not None."""

    def count(counts, args, result):
        counts[calls] += 1
        counts[hits] += result is not None

    return count


def _mul(counts, args, result):
    a, b = args
    counts["poly.mul_calls"] += 1
    counts["poly.mul_term_pairs"] += len(a) * (len(b) if hasattr(b, "nvars") else 1)


def _shift(counts, args, result):
    counts["poly.shift_calls"] += 1
    counts["poly.shift_terms"] += len(args[0])


def _parse(counts, args, result):
    counts["parser.calls"] += 1
    counts["parser.chars"] += len(args[0])


def _nonconstant(sol) -> int:
    return sum(not p.is_constant for p in sol.polys)


def _binary(counts, args, result):
    counts["consistency.binary_pairs"] += comb(args[0].sys.nshifts, 2)


def _ternary(counts, args, result):
    sol = args[0]
    counts["consistency.ternary_triples"] += _nonconstant(sol) * comb(sol.sys.nshifts - 1, 2)


def _nonsym(counts, args, result):
    sol = args[0]
    n = sol.sys.nshifts
    counts["consistency.nonsym_checks"] += comb(n, 2) + _nonconstant(sol) * comb(n - 1, 2)


# (module, function, layer, count hook or None)
FUNCTIONS = [
    ("problemfile", "load_path", "problemfile.load", None),
    ("problemfile", "dumps", "problemfile.dumps", None),
    ("parser", "parse_poly", "parser", _parse),
    ("poly", "exact_div", "poly.exact_div", _hits("poly.exact_div_calls", "poly.exact_div_hits")),
    ("consistency", "check_binary", "consistency", _binary),
    ("consistency", "check_ternary", "consistency", _ternary),
    ("consistency", "check_nonsymmetric", "consistency", _nonsym),
    ("orbital", "decompose", "orbital.decompose", None),
    ("orbital", "factor_entry", "orbital.factor_entry", _calls("orbital.factor_entry_calls")),
    ("shifts", "same_orbit", "shifts.same_orbit", _hits("shifts.same_orbit_calls", "shifts.same_orbit_hits")),
    ("shifts", "stabilizer_lattice", "shifts.stabilizer", _calls("shifts.stabilizer_calls")),
    ("intlinalg", "integer_kernel", "intlinalg", _calls("intlinalg.calls")),
    ("intlinalg", "solve_integer", "intlinalg", _calls("intlinalg.calls")),
    ("intlinalg", "hnf", "intlinalg", _calls("intlinalg.calls")),
    ("intlinalg", "lattice_contains", "intlinalg", _calls("intlinalg.calls")),
    ("vertex", "decode", "vertex.decode", None),
    ("vertex", "encode", "vertex.encode", None),
    ("vertex", "classify", "vertex.classify", None),
    ("vertex", "validate", "vertex.validate", None),
]
# (module, class, method, layer, count hook or None)
METHODS = [
    ("poly", "Poly", "__mul__", "poly.mul", _mul),
    ("poly", "Poly", "__rmul__", "poly.mul", _mul),
    ("poly", "Poly", "shift", "poly.shift", _shift),
    ("poly", "Poly", "__add__", "poly.add", None),
    ("poly", "Poly", "__radd__", "poly.add", None),
    ("orbital", "FactoredPoly", "expand", "orbital.expand", _calls("orbital.expand_calls")),
]


def install(tracer: Tracer) -> None:
    """Rebind every listed function in every loaded weylshift module that
    holds it, and every listed method on its class."""
    modules = {name: mod for name, mod in sys.modules.items() if name == "weylshift" or name.startswith("weylshift.")}
    for modname, fname, layer, count in FUNCTIONS:
        original = getattr(modules[f"weylshift.{modname}"], fname)
        wrapper = tracer.wrap(layer, original, count)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    for modname, cname, meth, layer, count in METHODS:
        cls = getattr(modules[f"weylshift.{modname}"], cname)
        original = cls.__dict__[meth]
        setattr(cls, meth, tracer.wrap(layer, original, count))


def _ratio(hits: int, calls: int) -> float:
    return hits / calls if calls else 0.0


def layer_metrics(self_s: dict, total_s: dict, counts: Counter) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as (value, unit)."""
    c = counts
    return {
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
        "problemfile.load_s": (total_s.get("problemfile.load", 0.0), "s"),
        "problemfile.dumps_s": (total_s.get("problemfile.dumps", 0.0), "s"),
        "parser.calls": (c["parser.calls"], "count"),
        "parser.chars": (c["parser.chars"], "chars"),
        "parser.self_s": (self_s.get("parser", 0.0), "s"),
        "poly.mul_calls": (c["poly.mul_calls"], "count"),
        "poly.mul_term_pairs": (c["poly.mul_term_pairs"], "count"),
        "poly.mul_self_s": (self_s.get("poly.mul", 0.0), "s"),
        "poly.shift_calls": (c["poly.shift_calls"], "count"),
        "poly.shift_terms": (c["poly.shift_terms"], "count"),
        "poly.shift_self_s": (self_s.get("poly.shift", 0.0), "s"),
        "poly.add_self_s": (self_s.get("poly.add", 0.0), "s"),
        "poly.exact_div_calls": (c["poly.exact_div_calls"], "count"),
        "poly.exact_div_hit_ratio": (_ratio(c["poly.exact_div_hits"], c["poly.exact_div_calls"]), "ratio"),
        "poly.exact_div_self_s": (self_s.get("poly.exact_div", 0.0), "s"),
        "consistency.binary_pairs": (c["consistency.binary_pairs"], "count"),
        "consistency.ternary_triples": (c["consistency.ternary_triples"], "count"),
        "consistency.nonsym_checks": (c["consistency.nonsym_checks"], "count"),
        "consistency.self_s": (self_s.get("consistency", 0.0), "s"),
        "orbital.expand_calls": (c["orbital.expand_calls"], "count"),
        "orbital.expand_self_s": (self_s.get("orbital.expand", 0.0), "s"),
        "orbital.decompose_self_s": (self_s.get("orbital.decompose", 0.0), "s"),
        "orbital.factor_entry_calls": (c["orbital.factor_entry_calls"], "count"),
        "orbital.factor_entry_self_s": (self_s.get("orbital.factor_entry", 0.0), "s"),
        "shifts.same_orbit_calls": (c["shifts.same_orbit_calls"], "count"),
        "shifts.same_orbit_hit_ratio": (_ratio(c["shifts.same_orbit_hits"], c["shifts.same_orbit_calls"]), "ratio"),
        "shifts.same_orbit_self_s": (self_s.get("shifts.same_orbit", 0.0), "s"),
        "shifts.stabilizer_calls": (c["shifts.stabilizer_calls"], "count"),
        "shifts.stabilizer_self_s": (self_s.get("shifts.stabilizer", 0.0), "s"),
        "intlinalg.calls": (c["intlinalg.calls"], "count"),
        "intlinalg.self_s": (self_s.get("intlinalg", 0.0), "s"),
        "vertex.decode_self_s": (self_s.get("vertex.decode", 0.0), "s"),
        "vertex.encode_self_s": (self_s.get("vertex.encode", 0.0), "s"),
        "vertex.classify_self_s": (self_s.get("vertex.classify", 0.0), "s"),
        "vertex.validate_self_s": (self_s.get("vertex.validate", 0.0), "s"),
    }
