"""Reading and writing the JSON problem-file format."""

import json
from fractions import Fraction

import pytest

from conftest import data_path
from weylshift.cli import main
from weylshift.consistency import symmetrize
from weylshift.parser import parse_poly
from weylshift.problemfile import (
    ProblemFileError,
    config_obj,
    dumps,
    factored_obj,
    file_obj,
    load_path,
    loads,
    solution_obj,
)
from weylshift.shifts import ShiftSystem


def doc_text(**overrides):
    doc = {"m": 1, "n": 2, "alpha": [[2, -2]]}
    doc.update(overrides)
    return json.dumps(doc)


def test_load_gl3_fields(gl3_file):
    assert gl3_file.sys.nvars == 2
    assert gl3_file.sys.nshifts == 3
    assert gl3_file.sys.alpha[0] == (-1, 1, 0)
    assert all(type(x) is Fraction for row in gl3_file.sys.alpha for x in row)
    assert set(gl3_file.tuples) == {"gl3_raw", "gl3_sym", "gl3_alt"}
    assert gl3_file.tuples["gl3_raw"].form == "nonsym"
    assert gl3_file.tuples["gl3_sym"].form == "sym"
    assert gl3_file.beta == ((-1, 1, 0), (0, -1, 1))
    assert set(gl3_file.configs) == {"u1_orbit"}


def test_load_staircase_fields(staircase_file):
    assert staircase_file.sys.nvars == 3
    assert staircase_file.sys.nshifts == 4
    main = staircase_file.tuples["main"]
    assert main.form == "factored"
    assert main.factored.entries[1].unit == Fraction(-1)
    assert main.factored.entries[2].factors == ()
    assert staircase_file.beta is None
    config = staircase_file.configs["fig"]
    assert config.pair == (0, 1)
    assert config.lattice == ((3, 2),)


def test_rational_strings_accepted():
    doc = loads(doc_text(alpha=[["1/2", "-3/2"]]))
    assert doc.sys.alpha[0] == (Fraction(1, 2), Fraction(-3, 2))
    assert all(type(x) is Fraction for row in doc.sys.alpha for x in row)
    assert type(doc.sys.alpha) is tuple and all(type(row) is tuple for row in doc.sys.alpha)


def test_float_literal_rejected():
    with pytest.raises(ProblemFileError, match="float literal"):
        loads(doc_text(alpha=[[1.5, -2]]))


def test_decimal_string_rejected():
    with pytest.raises(ProblemFileError):
        loads(doc_text(alpha=[["1.5", "-2"]]))


def test_not_json():
    with pytest.raises(ProblemFileError, match="not valid JSON"):
        loads("{nope")


def test_deeply_nested_json():
    # deeper than the interpreter's recursion limit
    text = doc_text()[:-1] + ', "x": ' + "[" * 100_000 + "]" * 100_000 + "}"
    with pytest.raises(ProblemFileError, match="nested too deeply"):
        loads(text)


def test_top_level_must_be_object():
    with pytest.raises(ProblemFileError, match="top level"):
        loads("[1, 2]")


def test_missing_alpha():
    with pytest.raises(ProblemFileError, match="missing alpha"):
        loads(json.dumps({"m": 1, "n": 2}))


def test_nonpositive_dimensions():
    with pytest.raises(ProblemFileError, match="positive"):
        loads(json.dumps({"m": 0, "n": 2, "alpha": []}))


def test_wrong_row_length():
    with pytest.raises(ProblemFileError, match="row 1 must have 2 entries"):
        loads(doc_text(alpha=[[2]]))


def test_bad_tuple_form():
    text = doc_text(tuples={"t": {"form": "weird", "polys": ["u1", "u1"]}})
    with pytest.raises(ProblemFileError, match="form must be one of"):
        loads(text)


def test_wrong_poly_count():
    text = doc_text(tuples={"t": {"form": "sym", "polys": ["u1"]}})
    with pytest.raises(ProblemFileError, match="need 2 polynomial strings"):
        loads(text)


def test_bad_factored_entry_shape():
    text = doc_text(
        tuples={
            "t": {
                "form": "factored",
                "entries": [
                    {"unit": 1, "factors": [["u1"]]},
                    {"unit": 1, "factors": []},
                ],
            }
        }
    )
    with pytest.raises(ProblemFileError, match="expected \\[expression, multiplicity\\]"):
        loads(text)


def test_factored_entry_must_be_monic():
    text = doc_text(
        tuples={
            "t": {
                "form": "factored",
                "entries": [
                    {"unit": 1, "factors": [["2*u1", 1]]},
                    {"unit": 1, "factors": []},
                ],
            }
        }
    )
    with pytest.raises(ProblemFileError, match="tuples.t.entries\\[1\\]"):
        loads(text)


def test_bad_config_pair():
    text = doc_text(configs={"c": {"generator": "u1", "pair": [1]}})
    with pytest.raises(ProblemFileError, match="expected \\[i, j\\]"):
        loads(text)


SOLO = {"a": {"form": "sym", "polys": ["u1", "u1"]}}


@pytest.mark.parametrize("key", ["tuples", "configs"])
@pytest.mark.parametrize("value", [False, 0, "", [], True, 1, "x", [1]])
def test_tuples_and_configs_must_be_objects(key, value):
    # only null stands for an absent section; a falsy value is as wrong as any
    text = doc_text(**{"tuples": SOLO, key: value})
    with pytest.raises(ProblemFileError, match=f"^{key}: expected an object$"):
        loads(text)


def test_null_tuples_and_configs_are_absent():
    doc = loads(doc_text(tuples=None, configs=None))
    assert doc.tuples == {} and doc.configs == {}


def test_verify_refuses_false_configs(tmp_path, capsys):
    path = tmp_path / "false.json"
    path.write_text(doc_text(tuples=SOLO, configs=False))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: configs: expected an object\n")


def test_config_lattice_mismatch(staircase_file):
    with open(data_path("staircase.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["configs"]["fig"]["lattice"] = [[1, 0]]
    with pytest.raises(ProblemFileError, match="does not match"):
        loads(json.dumps(doc))


def test_only_tuple_named_and_unique(gl3_file, staircase_file):
    name, entry = gl3_file.only_tuple("gl3_raw")
    assert name == "gl3_raw" and entry.form == "nonsym"
    text = doc_text(tuples={"solo": {"form": "sym", "polys": ["u1", "u1"]}})
    name, entry = loads(text).only_tuple(None)
    assert name == "solo"
    with pytest.raises(ProblemFileError, match="no tuple named"):
        gl3_file.only_tuple("missing")
    with pytest.raises(ProblemFileError, match="pick one with --tuple"):
        staircase_file.only_tuple(None)
    with pytest.raises(ProblemFileError, match="defines no tuples"):
        loads(doc_text()).only_tuple(None)


def test_only_config_named_and_unique(staircase_file):
    name, config = staircase_file.only_config(None)
    assert name == "fig"
    with pytest.raises(ProblemFileError, match="no config named"):
        staircase_file.only_config("missing")
    with pytest.raises(ProblemFileError, match="defines no configs"):
        loads(doc_text()).only_config(None)


def test_round_trip_tuples_beta_configs(gl3_file):
    sol = gl3_file.tuples["gl3_sym"].as_solution()
    fs = gl3_file.tuples["gl3_sym"].as_factored()
    config = gl3_file.configs["u1_orbit"]
    doc = file_obj(
        gl3_file.sys,
        tuples={"plain": solution_obj(sol), "split": factored_obj(fs)},
        configs={"c": config_obj(config)},
    )
    doc["beta"] = [list(row) for row in gl3_file.beta]
    back = loads(dumps(doc))
    assert back.sys == gl3_file.sys
    assert back.tuples["plain"].as_solution() == sol
    assert back.tuples["split"].factored == fs
    assert back.beta == gl3_file.beta
    assert back.configs["c"] == config


def test_round_trip_fractional_alpha():
    sys = ShiftSystem.from_rows([[Fraction(1, 2), Fraction(-1, 2)]])
    back = loads(dumps(file_obj(sys)))
    assert back.sys == sys


def test_as_factored_on_demand(gl3_file):
    # a nonsym tuple is factored through its symmetrized entries
    raw = gl3_file.tuples["gl3_raw"].as_solution()
    fs = gl3_file.tuples["gl3_raw"].as_factored()
    assert fs.expand().polys == symmetrize(raw).polys


def test_as_factored_reports_hard_entry():
    text = doc_text(
        n=1,
        alpha=[[2]],
        tuples={"t": {"form": "sym", "polys": ["u1^6 - u1 - 1"]}},
    )
    entry = loads(text).only_tuple(None)[1]
    with pytest.raises(ProblemFileError, match="entry 1 does not factor"):
        entry.as_factored()


def test_load_path_matches_loads():
    direct = load_path(data_path("gl3.json"))
    with open(data_path("gl3.json"), encoding="utf-8") as handle:
        on_text = loads(handle.read())
    assert direct.sys == on_text.sys
    assert direct.tuples.keys() == on_text.tuples.keys()


def test_equiv_pairs_loaded():
    doc = load_path(data_path("equiv_ok.json"))
    assert doc.psi is not None
    assert doc.pair_a is not None
    assert doc.pair_a.sys.alpha == ((2, -2),)
    assert doc.pair_b.sys.alpha == ((-2, 2),)
    assert doc.pair_a.polys[0] == parse_poly("u1^2 - 1/4", 1)
