"""Problem files: one JSON document describing a shift system and its data.

Rationals are serialized as strings like "-3/2" (plain integers are also
accepted); floats are rejected everywhere, since the whole toolchain is
exact.  Polynomials are expression strings in the parser grammar.  Index
pairs are 1-based in files and 0-based in memory.

Top-level keys: m, n, alpha, then optionally tuples, beta, configs, psi,
pair_a, pair_b, each absent or null when not given.  See the README for a
worked example.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping

from .consistency import SolutionTuple, symmetrize
from .equivalence import AutomorphismSpec
from .orbital import FactoredSolution, factor_entry
from .parser import _MAX_DEGREE, parse_poly, parse_rational
from .poly import FactoredPoly, Poly, format_poly
from .shifts import ShiftSystem
from .vertex import VertexConfig

FORMS = ("sym", "nonsym", "factored")


class ProblemFileError(ValueError):
    """The document does not match the problem-file schema."""


def _rational(value: Any, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ProblemFileError(f"{where}: rationals must be strings or integers")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError as exc:
            raise ProblemFileError(f"{where}: {exc}") from None
    raise ProblemFileError(f"{where}: expected a rational, got {type(value).__name__}")


def _integer(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFileError(f"{where}: expected an integer")
    return value


def _object(value: Any, where: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ProblemFileError(f"{where}: expected an object")
    return value


def _optional_object(doc: Mapping, key: str) -> Mapping:
    """doc[key] as an object; an empty one when it is absent or null."""
    return {} if doc.get(key) is None else _object(doc[key], key)


def _list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ProblemFileError(f"{where}: expected a list")
    return value


def _poly(value: Any, m: int, where: str) -> Poly:
    if not isinstance(value, str):
        raise ProblemFileError(f"{where}: polynomials must be expression strings")
    try:
        return parse_poly(value, m)
    except ValueError as exc:
        raise ProblemFileError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class TupleEntry:
    """A named tuple from a problem file, in whichever form it was given."""

    form: str
    solution: SolutionTuple | None = None
    factored: FactoredSolution | None = None

    def as_solution(self) -> SolutionTuple:
        if self.solution is not None:
            return self.solution
        return self.factored.expand()

    def as_factored(self) -> FactoredSolution:
        """The factored form, factoring plain entries on demand; a nonsym
        tuple is symmetrized first."""
        if self.factored is not None:
            return self.factored
        sol = symmetrize(self.solution) if self.form == "nonsym" else self.solution
        entries = []
        for i, p in enumerate(sol.polys):
            fp = factor_entry(p)
            if fp is None:
                raise ProblemFileError(
                    f"entry {i + 1} does not factor with the available tools; "
                    "supply the tuple in factored form"
                )
            entries.append(fp)
        return FactoredSolution(sol.sys, tuple(entries))


@dataclass(frozen=True)
class ProblemFile:
    sys: ShiftSystem
    tuples: dict[str, TupleEntry] = field(default_factory=dict)
    beta: tuple[tuple[int, ...], ...] | None = None
    configs: dict[str, VertexConfig] = field(default_factory=dict)
    psi: AutomorphismSpec | None = None
    pair_a: SolutionTuple | None = None
    pair_b: SolutionTuple | None = None

    def only_tuple(self, name: str | None) -> tuple[str, TupleEntry]:
        """The named tuple, or the unique one when no name is given."""
        return _only("tuple", self.tuples, name)

    def only_config(self, name: str | None) -> tuple[str, VertexConfig]:
        """The named config, or the unique one when no name is given."""
        return _only("config", self.configs, name)


def _only(kind: str, items: dict[str, Any], name: str | None) -> tuple[str, Any]:
    """The item called name, or the only item when name is None; `kind` is
    both the noun in the messages and the CLI option that picks one."""
    if name is not None:
        if name not in items:
            raise ProblemFileError(f"no {kind} named {name!r} in the file")
        return name, items[name]
    if len(items) == 1:
        return next(iter(items.items()))
    if not items:
        raise ProblemFileError(f"the file defines no {kind}s")
    names = ", ".join(sorted(items))
    raise ProblemFileError(f"several {kind}s ({names}); pick one with --{kind}")


def _load_alpha(obj: Any, m: int, n: int, where: str) -> ShiftSystem:
    if not isinstance(obj, list) or len(obj) != m:
        raise ProblemFileError(f"{where}: alpha must be a list of {m} rows")
    rows = []
    for j, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            raise ProblemFileError(f"{where}: row {j + 1} must have {n} entries")
        rows.append(tuple(_rational(x, f"{where} row {j + 1}") for x in row))
    return ShiftSystem(tuple(rows))


def _load_polys(obj: Any, sys: ShiftSystem, where: str) -> SolutionTuple:
    if not isinstance(obj, list) or len(obj) != sys.nshifts:
        raise ProblemFileError(f"{where}: need {sys.nshifts} polynomial strings")
    polys = tuple(_poly(x, sys.nvars, f"{where}[{i + 1}]") for i, x in enumerate(obj))
    try:
        return SolutionTuple(sys, polys)
    except ValueError as exc:
        raise ProblemFileError(f"{where}: {exc}") from None


def _load_tuple(obj: Any, sys: ShiftSystem, where: str) -> TupleEntry:
    obj = _object(obj, where)
    form = obj.get("form", "sym")
    if form not in FORMS:
        raise ProblemFileError(f"{where}: form must be one of {', '.join(FORMS)}")
    if form == "factored":
        entries_obj = obj.get("entries")
        if not isinstance(entries_obj, list) or len(entries_obj) != sys.nshifts:
            raise ProblemFileError(f"{where}: need {sys.nshifts} factored entries")
        entries = []
        for i, e in enumerate(entries_obj):
            ew = f"{where}.entries[{i + 1}]"
            e = _object(e, ew)
            unit = _rational(e.get("unit", 1), f"{ew}.unit")
            factors = []
            for k, item in enumerate(_list(e.get("factors", []), f"{ew}.factors")):
                fw = f"{ew}.factors[{k + 1}]"
                if not isinstance(item, list) or len(item) != 2:
                    raise ProblemFileError(f"{fw}: expected [expression, multiplicity]")
                q = _poly(item[0], sys.nvars, fw)
                mult = _integer(item[1], fw)
                factors.append((q, mult))
            degree = sum(mult * q.degree() for q, mult in factors)
            if degree > _MAX_DEGREE:
                raise ProblemFileError(f"{ew}: degree {degree} passes the limit {_MAX_DEGREE}")
            try:
                entries.append(FactoredPoly.from_factors(sys.nvars, factors, unit))
            except ValueError as exc:
                raise ProblemFileError(f"{ew}: {exc}") from None
        return TupleEntry(form, factored=FactoredSolution(sys, tuple(entries)))
    return TupleEntry(form, solution=_load_polys(obj.get("polys"), sys, where))


def _load_config(obj: Any, sys: ShiftSystem, where: str) -> VertexConfig:
    obj = _object(obj, where)
    generator = _poly(obj.get("generator"), sys.nvars, f"{where}.generator")
    pair_obj = obj.get("pair")
    if not isinstance(pair_obj, list) or len(pair_obj) != 2:
        raise ProblemFileError(f"{where}.pair: expected [i, j] (1-based)")
    i = _integer(pair_obj[0], f"{where}.pair") - 1
    j = _integer(pair_obj[1], f"{where}.pair") - 1
    edges = []
    for k, item in enumerate(_list(obj.get("edges", []), f"{where}.edges")):
        ew = f"{where}.edges[{k + 1}]"
        if not isinstance(item, list) or len(item) != 3:
            raise ProblemFileError(f"{ew}: expected [x, y, multiplicity]")
        edges.append(tuple(_integer(v, ew) for v in item))
    try:
        config = VertexConfig.build(sys, generator, (i, j), edges)
    except ValueError as exc:
        raise ProblemFileError(f"{where}: {exc}") from None
    lattice_obj = obj.get("lattice")
    if lattice_obj is not None:
        lw = f"{where}.lattice"
        stated = tuple(
            tuple(_integer(v, lw) for v in _list(row, lw)) for row in _list(lattice_obj, lw)
        )
        if stated != config.lattice:
            raise ProblemFileError(
                f"{where}.lattice: stated basis {list(stated)} does not match "
                f"the computed stabilizer {list(config.lattice)}"
            )
    return config


def load_obj(doc: Any) -> ProblemFile:
    if not isinstance(doc, Mapping):
        raise ProblemFileError("top level must be an object")
    m = _integer(doc.get("m"), "m")
    n = _integer(doc.get("n"), "n")
    if m < 1 or n < 1:
        raise ProblemFileError("m and n must be positive")
    if "alpha" not in doc:
        raise ProblemFileError("missing alpha matrix")
    sys = _load_alpha(doc["alpha"], m, n, "alpha")

    tuples: dict[str, TupleEntry] = {}
    for name, obj in _optional_object(doc, "tuples").items():
        tuples[name] = _load_tuple(obj, sys, f"tuples.{name}")

    beta = None
    if doc.get("beta") is not None:
        rows = doc["beta"]
        if not isinstance(rows, list):
            raise ProblemFileError("beta must be a list of integer rows")
        beta = tuple(
            tuple(_integer(x, f"beta row {j + 1}") for x in _list(row, f"beta row {j + 1}"))
            for j, row in enumerate(rows)
        )

    configs: dict[str, VertexConfig] = {}
    for name, obj in _optional_object(doc, "configs").items():
        configs[name] = _load_config(obj, sys, f"configs.{name}")

    psi = None
    if doc.get("psi") is not None:
        pobj = _object(doc["psi"], "psi")
        forward = [_poly(x, m, "psi.forward") for x in _list(pobj.get("forward", []), "psi.forward")]
        inverse = [_poly(x, m, "psi.inverse") for x in _list(pobj.get("inverse", []), "psi.inverse")]
        try:
            psi = AutomorphismSpec(tuple(forward), tuple(inverse))
        except ValueError as exc:
            raise ProblemFileError(f"psi: {exc}") from None

    pairs: dict[str, SolutionTuple] = {}
    for key in ("pair_a", "pair_b"):
        if doc.get(key) is not None:
            pobj = _object(doc[key], key)
            psys = (
                _load_alpha(pobj["alpha"], m, n, f"{key}.alpha")
                if "alpha" in pobj
                else sys
            )
            pairs[key] = _load_polys(pobj.get("polys"), psys, f"{key}.polys")

    return ProblemFile(
        sys=sys,
        tuples=tuples,
        beta=beta,
        configs=configs,
        psi=psi,
        pair_a=pairs.get("pair_a"),
        pair_b=pairs.get("pair_b"),
    )


def loads(text: str) -> ProblemFile:
    try:
        doc = json.loads(text, parse_float=_reject_float)
    except ProblemFileError:  # a float literal
        raise
    except ValueError as exc:  # bad syntax, or an integer past Python's digit limit
        raise ProblemFileError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ProblemFileError("JSON nested too deeply") from None
    return load_obj(doc)


def load_path(path: str) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ProblemFileError(f"{path} is not UTF-8 text: {exc}") from None
    return loads(text)


def _reject_float(text: str) -> None:
    raise ProblemFileError(f"float literal {text!r} is not allowed; write a fraction")


def _rational_str(x: Fraction) -> str | int:
    return int(x) if x.denominator == 1 else str(x)


def alpha_obj(sys: ShiftSystem) -> list[list[str | int]]:
    return [[_rational_str(x) for x in row] for row in sys.alpha]


def solution_obj(sol: SolutionTuple, form: str = "sym") -> dict:
    return {"form": form, "polys": [format_poly(p) for p in sol.polys]}


def factored_obj(fs: FactoredSolution) -> dict:
    entries = []
    for entry in fs.entries:
        entries.append(
            {
                "unit": _rational_str(entry.unit),
                "factors": [[format_poly(q), mult] for q, mult in entry.factors],
            }
        )
    return {"form": "factored", "entries": entries}


def config_obj(config: VertexConfig) -> dict:
    return {
        "generator": format_poly(config.generator),
        "pair": [config.pair[0] + 1, config.pair[1] + 1],
        "lattice": [list(row) for row in config.lattice],
        "edges": [list(edge) for edge in config.edges],
    }


def file_obj(
    sys: ShiftSystem,
    tuples: Mapping[str, dict] | None = None,
    configs: Mapping[str, dict] | None = None,
) -> dict:
    doc: dict[str, Any] = {
        "m": sys.nvars,
        "n": sys.nshifts,
        "alpha": alpha_obj(sys),
    }
    if tuples:
        doc["tuples"] = dict(tuples)
    if configs:
        doc["configs"] = dict(configs)
    return doc


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
