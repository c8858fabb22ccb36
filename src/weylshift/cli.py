"""Command-line front end.

Exit codes: 0 for success (and passing checks), 1 for a failed check,
2 for unusable input of any kind.  All indices on the command line and
in printed output are 1-based; problem files follow the same rule.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from math import gcd
from typing import Sequence

from . import problemfile as pf
from .consistency import (
    CheckReport,
    check_factored,
    check_nonsymmetric,
    check_symmetric,
    symmetrize,
)
from .equivalence import check_equivalence
from .multiquiver import (
    build_solution,
    expected_piece_count,
    symmetrized_solution,
    validate_beta,
)
from .intlinalg import hnf
from .orbital import StructureError, _place, decompose, support_pair
from .parser import ParseError, parse_poly
from .poly import FactoredPoly, format_poly
from .svg import render_svg
from .vertex import classify, decode, random_config, validate

# The package's own errors and failed file access; any other exception is
# a bug and propagates with its traceback.
USER_ERRORS = (pf.ProblemFileError, ParseError, StructureError, OSError)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _print_failures(report: CheckReport) -> None:
    for failure in report.failures:
        print("  " + failure.describe())


def format_factored(entry: FactoredPoly) -> str:
    """The entry as its unit and factors, the factors in text order."""
    parts = []
    if entry.unit != 1 or not entry.factors:
        parts.append(str(entry.unit))
    for text, mult in sorted((format_poly(q), mult) for q, mult in entry.factors):
        parts.append(f"({text})" + (f"^{mult}" if mult > 1 else ""))
    return " * ".join(parts)


def cmd_verify(args) -> int:
    doc = pf.load_path(args.file)
    name, entry = doc.only_tuple(args.tuple)
    form = args.form or ("nonsym" if entry.form == "nonsym" else "sym")
    if form == "nonsym":
        report = check_nonsymmetric(entry.as_solution())
    elif entry.factored is not None:
        report = check_factored(entry.factored.sys, entry.factored.entries)
    else:
        report = check_symmetric(entry.solution)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"tuple {name} ({form} form): {verdict}")
    _print_failures(report)
    return 0 if report.passed else 1


def cmd_symmetrize(args) -> int:
    doc = pf.load_path(args.file)
    name, entry = doc.only_tuple(args.tuple)
    if entry.form != "nonsym":
        raise pf.ProblemFileError(f"tuple {name} is already in half-shifted form")
    sym = symmetrize(entry.as_solution())
    out = pf.file_obj(doc.sys, tuples={name: pf.solution_obj(sym, "sym")})
    _emit(pf.dumps(out), args.output)
    return 0


def cmd_decompose(args) -> int:
    doc = pf.load_path(args.file)
    name, entry = doc.only_tuple(args.tuple)
    described = [(p, support_pair(p), hnf(stab)) for p, _, stab in _place(entry.as_factored())]
    print(f"tuple {name}: {len(described)} orbital piece(s)")
    for k, (piece, pair, stab) in enumerate(described, start=1):
        pair_text = (
            f"({pair[0] + 1},{pair[1] + 1})" if pair is not None else "trivial"
        )
        stab_text = " ".join(str(v) for v in stab) if stab else "trivial"
        print(f"piece {k}: support pair {pair_text}")
        print(f"  generator: {format_poly(piece.generator)}")
        print(f"  stabilizer: {stab_text}")
        for i, e in enumerate(piece.solution.entries, start=1):
            print(f"  entry {i}: {format_factored(e)}")
    return 0


def cmd_encode(args) -> int:
    doc = pf.load_path(args.file)
    name, entry = doc.only_tuple(args.tuple)
    configs = {
        f"{name}.piece{k + 1}": pf.config_obj(config)
        for k, config in enumerate(classify(entry.as_factored()))
    }
    out = pf.file_obj(doc.sys, configs=configs)
    _emit(pf.dumps(out), args.output)
    return 0


def cmd_decode(args) -> int:
    doc = pf.load_path(args.file)
    if args.config is not None:
        names = [args.config]
        doc.only_config(args.config)
    else:
        if not doc.configs:
            raise pf.ProblemFileError("the file defines no configs")
        names = list(doc.configs)
    tuples = {}
    for cname in names:
        piece = decode(doc.configs[cname])
        tuples[cname] = pf.factored_obj(piece.solution)
    out = pf.file_obj(doc.sys, tuples=tuples)
    _emit(pf.dumps(out), args.output)
    return 0


def cmd_classify(args) -> int:
    doc = pf.load_path(args.file)
    name, entry = doc.only_tuple(args.tuple)
    obj = {
        "tuple": name,
        "pieces": [pf.config_obj(config) for config in classify(entry.as_factored())],
    }
    _emit(pf.dumps(obj), args.output)
    return 0


def cmd_multiquiver(args) -> int:
    doc = pf.load_path(args.beta)
    if doc.beta is None:
        raise pf.ProblemFileError("the file has no beta matrix")
    beta = doc.beta
    report = validate_beta(beta)
    if not report.passed:
        print("invalid beta matrix:", file=sys.stderr)
        for failure in report.failures:
            print("  " + failure.describe(), file=sys.stderr)
        return 2
    for j, row in enumerate(beta, start=1):
        if not any(row):
            raise StructureError(f"row {j} is zero; it contributes no solution data")
    sol = build_solution(beta)
    sym = symmetrized_solution(beta)
    # every generator is linear in the one variable of its row
    rows = [[] for _ in beta]
    for piece in decompose(sym):
        (j,) = piece.generator.used_variables()
        rows[j].append(piece)
    print(f"rows: {len(beta)}, directions: {len(beta[0])}")
    print("solution (full-shift form):")
    for i, p in enumerate(sol.polys, start=1):
        print(f"  t{i} = {format_poly(p)}")
    print("symmetrized solution:")
    for i, e in enumerate(sym.entries, start=1):
        print(f"  p{i} = {format_factored(e)}")
    print(f"expected piece count: {expected_piece_count(beta)}")
    for j, (row, pieces) in enumerate(zip(beta, rows), start=1):
        side = " (one-sided)" if sum(1 for v in row if v) == 1 else ""
        print(f"row {j}: modulus {gcd(*row)}, {len(pieces)} piece(s){side}")
        for piece in pieces:
            print(f"  orbit of {format_poly(piece.generator)}:")
            for i, e in enumerate(piece.solution.entries, start=1):
                if not e.is_one:
                    print(f"    entry {i}: {format_factored(e)}")
    return 0


def cmd_render(args) -> int:
    doc = pf.load_path(args.file)
    _, config = doc.only_config(args.config)
    report = validate(config)
    if not report.passed:
        print("invalid configuration:")
        _print_failures(report)
        return 1
    _emit(render_svg(config), args.output)
    return 0


def cmd_equiv(args) -> int:
    doc = pf.load_path(args.file)
    if doc.psi is None or doc.pair_a is None or doc.pair_b is None:
        raise pf.ProblemFileError("equiv needs psi, pair_a and pair_b in the file")
    report = check_equivalence(doc.psi, doc.pair_a, doc.pair_b)
    verdict = "EQUIVALENT" if report.passed else "NOT EQUIVALENT"
    print(verdict)
    _print_failures(report)
    return 0 if report.passed else 1


def cmd_gen_random(args) -> int:
    doc = pf.load_path(args.file)
    generator = parse_poly(args.orbit, doc.sys.nvars)
    pair = (args.pair[0] - 1, args.pair[1] - 1)
    config = random_config(
        doc.sys, generator, pair, loops=args.loops, seed=args.seed
    )
    out = pf.file_obj(doc.sys, configs={"random": pf.config_obj(config)})
    _emit(pf.dumps(out), args.output)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: a parser is a
    cyclic object graph, so one built per call to main is garbage that
    only the cyclic collector frees."""
    parser = argparse.ArgumentParser(
        prog="weylshift",
        description="Consistency equations over shifted polynomial rings: "
        "verification, factorization, and grid configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("verify", cmd_verify, "run the consistency checks on a tuple")
    p.add_argument("file")
    p.add_argument("--tuple", default=None)
    p.add_argument("--form", choices=("sym", "nonsym"), default=None)

    p = add("symmetrize", cmd_symmetrize, "half-shift a full-shift tuple")
    p.add_argument("file")
    p.add_argument("--tuple", default=None)
    p.add_argument("-o", "--output", default=None)

    p = add("decompose", cmd_decompose, "split a tuple into orbital pieces")
    p.add_argument("file")
    p.add_argument("--tuple", default=None)

    p = add("encode", cmd_encode, "turn a tuple into grid configurations")
    p.add_argument("file")
    p.add_argument("--tuple", default=None)
    p.add_argument("-o", "--output", default=None)

    p = add("decode", cmd_decode, "expand grid configurations into tuples")
    p.add_argument("file")
    p.add_argument("--config", default=None)
    p.add_argument("-o", "--output", default=None)

    p = add("classify", cmd_classify, "full orbit-and-configuration record")
    p.add_argument("file")
    p.add_argument("--tuple", default=None)
    p.add_argument("-o", "--output", default=None)

    p = add("multiquiver", cmd_multiquiver, "build solutions from an integer matrix")
    p.add_argument("--beta", required=True, metavar="FILE")

    p = add("render", cmd_render, "draw a configuration as SVG")
    p.add_argument("file")
    p.add_argument("--config", default=None)
    p.add_argument("-o", "--output", default=None)

    p = add("equiv", cmd_equiv, "check equivalence of two pairs under psi")
    p.add_argument("file")

    p = add("gen-random", cmd_gen_random, "random staircase configuration")
    p.add_argument("file")
    p.add_argument("--orbit", required=True, metavar="EXPR")
    p.add_argument("--pair", required=True, type=int, nargs=2, metavar=("I", "J"))
    p.add_argument("--loops", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("-o", "--output", default=None)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
