"""End-to-end runs of the command-line interface through main(argv)."""

import json
import random
import re
import time

import pytest

from conftest import data_path, golden_path
from weylshift import cli
from weylshift import problemfile as pf
from weylshift.cli import main
from weylshift.multiquiver import symmetrized_solution, system_of
from weylshift.problemfile import load_path, loads

GL3 = data_path("gl3.json")
STAIR = data_path("staircase.json")


def test_verify_staircase_passes(capsys):
    assert main(["verify", STAIR, "--tuple", "main"]) == 0
    out = capsys.readouterr().out
    assert "tuple main (sym form): PASS" in out


def test_verify_failing_tuple(capsys):
    assert main(["verify", GL3, "--tuple", "gl3_alt"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "binary fails at" in out


def test_verify_nonsym_default_form(capsys):
    assert main(["verify", GL3, "--tuple", "gl3_raw"]) == 0
    assert "(nonsym form): PASS" in capsys.readouterr().out


def test_verify_forced_form(capsys):
    # the full-shift entries do not satisfy the half-shift identities
    assert main(["verify", GL3, "--tuple", "gl3_raw", "--form", "sym"]) == 1


def test_missing_file(capsys):
    assert main(["verify", "no-such-file.json"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["verify", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_tuple_name(capsys):
    assert main(["verify", GL3, "--tuple", "missing"]) == 2
    assert "no tuple named" in capsys.readouterr().err


def test_ambiguous_tuple(capsys):
    assert main(["verify", STAIR]) == 2
    assert "pick one with --tuple" in capsys.readouterr().err


def test_symmetrize_writes_sym_tuple(tmp_path, capsys):
    out = tmp_path / "sym.json"
    assert main(["symmetrize", GL3, "--tuple", "gl3_raw", "-o", str(out)]) == 0
    doc = load_path(str(out))
    expected = load_path(GL3).tuples["gl3_sym"].as_solution()
    assert doc.tuples["gl3_raw"].form == "sym"
    assert doc.tuples["gl3_raw"].as_solution().polys == expected.polys


def test_symmetrize_rejects_sym_input(capsys):
    assert main(["symmetrize", GL3, "--tuple", "gl3_sym"]) == 2
    assert "already in half-shifted form" in capsys.readouterr().err


def test_decompose_output(capsys):
    assert main(["decompose", GL3, "--tuple", "gl3_sym"]) == 0
    out = capsys.readouterr().out
    assert "2 orbital piece(s)" in out
    assert "support pair (1,2)" in out
    assert "support pair (2,3)" in out
    assert "stabilizer: (1, 1, 0) (0, 0, 1)" in out


def test_encode_decode_round_trip(tmp_path):
    enc = tmp_path / "enc.json"
    dec = tmp_path / "dec.json"
    assert main(["encode", STAIR, "--tuple", "main_monic", "-o", str(enc)]) == 0
    encoded = load_path(str(enc))
    assert list(encoded.configs) == ["main_monic.piece1"]
    assert main(["decode", str(enc), "-o", str(dec)]) == 0
    decoded = load_path(str(dec))
    got = decoded.tuples["main_monic.piece1"].as_factored().expand()
    want = load_path(STAIR).tuples["main_monic"].as_factored().expand()
    assert got.polys == want.polys


def test_decode_named_config(tmp_path):
    out = tmp_path / "dec.json"
    assert main(["decode", STAIR, "--config", "fig", "-o", str(out)]) == 0
    doc = load_path(str(out))
    got = doc.tuples["fig"].factored
    want = load_path(STAIR).tuples["main"].factored
    for g, w in zip(got.entries, want.entries):
        assert g.unit == w.unit
        assert sorted(g.factors, key=repr) == sorted(w.factors, key=repr)


def test_decode_without_configs(tmp_path, capsys):
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"m": 1, "n": 2, "alpha": [[2, -2]]}))
    assert main(["decode", str(plain)]) == 2
    assert "defines no configs" in capsys.readouterr().err


def test_classify_record(tmp_path):
    out = tmp_path / "cls.json"
    assert main(["classify", GL3, "--tuple", "gl3_sym", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["tuple"] == "gl3_sym"
    assert [piece["pair"] for piece in doc["pieces"]] == [[1, 2], [2, 3]]


@pytest.mark.parametrize("verb", ["classify", "decompose"])
def test_output_does_not_depend_on_factor_order(tmp_path, capsys, verb):
    # a decoded 2-loop staircase, and the same tuple with each entry's
    # factor list reversed: classify once gave them generators u1 - 6 and
    # u1 - 4, and decompose printed each entry's factors in file order
    rnd, dec, rev = (tmp_path / name for name in ("rnd.json", "dec.json", "rev.json"))
    argv = ["gen-random", STAIR, "--orbit", "u1", "--pair", "1", "2", "--loops", "2", "--seed", "4"]
    assert main(argv + ["-o", str(rnd)]) == 0
    assert main(["decode", str(rnd), "-o", str(dec)]) == 0
    doc = json.loads(dec.read_text())
    entries = doc["tuples"]["random"]["entries"]
    assert max(len(entry["factors"]) for entry in entries) > 1
    for entry in entries:
        entry["factors"].reverse()
    rev.write_text(json.dumps(doc))
    outputs = []
    for path in (dec, rev):
        capsys.readouterr()
        assert main([verb, str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    if verb == "classify":
        generators = [piece["generator"] for piece in json.loads(outputs[0])["pieces"]]
    else:
        generators = re.findall(r"generator: (.*)", outputs[0])
    assert generators == ["u1"]


def test_multiquiver_report(capsys):
    assert main(["multiquiver", "--beta", GL3]) == 0
    out = capsys.readouterr().out
    assert "rows: 2, directions: 3" in out
    assert "expected piece count: 2" in out
    assert "row 1: modulus 1, 1 piece(s)" in out
    assert "one-sided" not in out


def test_multiquiver_one_sided_flag(tmp_path, capsys):
    doc = {"m": 1, "n": 2, "alpha": [[2, 0]], "beta": [[2, 0]]}
    path = tmp_path / "beta.json"
    path.write_text(json.dumps(doc))
    assert main(["multiquiver", "--beta", str(path)]) == 0
    assert "one-sided" in capsys.readouterr().out


def _orbit_names(beta, tmp_path, capsys):
    """The generators that multiquiver names for beta, and those that
    decompose prints for the symmetrized tuple, from one file."""
    doc = pf.file_obj(system_of(beta), tuples={"sym": pf.factored_obj(symmetrized_solution(beta))})
    doc["beta"] = beta
    path = tmp_path / "beta.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["multiquiver", "--beta", str(path)]) == 0
    named = re.findall(r"^  orbit of (.*):$", capsys.readouterr().out, re.MULTILINE)
    assert main(["decompose", str(path)]) == 0
    printed = re.findall(r"^  generator: (.*)$", capsys.readouterr().out, re.MULTILINE)
    return named, printed


def test_multiquiver_names_the_orbits_that_decompose_prints(tmp_path, capsys):
    named, printed = _orbit_names([[-1, 1, 0], [0, -1, 1]], tmp_path, capsys)
    assert named == printed == ["u1 + 1/2", "u2 + 1/2"]
    rng = random.Random(2603)
    for _ in range(20):
        ncols = rng.randint(2, 4)
        beta = []
        for _ in range(rng.randint(1, 3)):
            row = [0] * ncols
            i, j = rng.sample(range(ncols), 2)
            row[i] = rng.randint(1, 6)
            row[j] = -rng.randint(0, 6)
            beta.append(row)
        named, printed = _orbit_names(beta, tmp_path, capsys)
        assert sorted(named) == sorted(printed) and len(set(named)) == len(named)


def test_multiquiver_invalid_beta(tmp_path, capsys):
    doc = {"m": 1, "n": 3, "alpha": [[1, 1, 0]], "beta": [[1, 1, 0]]}
    path = tmp_path / "beta.json"
    path.write_text(json.dumps(doc))
    assert main(["multiquiver", "--beta", str(path)]) == 2
    assert "invalid beta matrix:" in capsys.readouterr().err


def test_multiquiver_beta_past_the_degree_limit_exits_two_at_once(tmp_path, capsys):
    doc = {"m": 1, "n": 2, "alpha": [[1, -1]], "beta": [[1001, -1]]}
    path = tmp_path / "beta.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["multiquiver", "--beta", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "beta-degree fails at (1)" in capsys.readouterr().err


def test_multiquiver_empty_rows_exit_two(tmp_path, capsys):
    path = _gl3_with(tmp_path, beta=[[]])
    assert main(["multiquiver", "--beta", path]) == 2
    err = capsys.readouterr().err
    assert "beta-shape fails" in err and "Traceback" not in err


def test_multiquiver_missing_beta(capsys):
    assert main(["multiquiver", "--beta", STAIR]) == 2
    assert "no beta matrix" in capsys.readouterr().err


def test_render_matches_golden(tmp_path):
    out = tmp_path / "fig.svg"
    assert main(["render", STAIR, "--config", "fig", "-o", str(out)]) == 0
    with open(golden_path("staircase.svg"), "rb") as handle:
        assert out.read_bytes() == handle.read()


def test_render_to_stdout(capsys):
    assert main(["render", STAIR]) == 0
    out = capsys.readouterr().out
    assert out.startswith('<?xml version="1.0"')
    assert out.endswith("</svg>\n")


def test_render_invalid_config(tmp_path, capsys):
    with open(STAIR, encoding="utf-8") as handle:
        doc = json.load(handle)
    del doc["configs"]["fig"]["edges"][0]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["render", str(path)]) == 1
    out = capsys.readouterr().out
    assert "invalid configuration:" in out
    assert "conservation fails" in out


def test_equiv_pass(capsys):
    assert main(["equiv", data_path("equiv_ok.json")]) == 0
    assert "EQUIVALENT" in capsys.readouterr().out


def test_equiv_fail(capsys):
    assert main(["equiv", data_path("equiv_bad.json")]) == 1
    out = capsys.readouterr().out
    assert "NOT EQUIVALENT" in out
    assert "scalar-multiple fails at (2): 2" in out


def test_equiv_needs_pairs(capsys):
    assert main(["equiv", GL3]) == 2
    assert "equiv needs psi" in capsys.readouterr().err


def test_gen_random_reproducible(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["gen-random", GL3, "--orbit", "u1", "--pair", "1", "2",
            "--loops", "3", "--seed", "7"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = load_path(str(a))
    # each loop crosses r + s = 2 edges on this orbit, merging aside
    assert sum(mult for _, _, mult in doc.configs["random"].edges) == 6
    assert main(["decode", str(a)]) == 0


@pytest.mark.parametrize("loops", ["-1", "1001"])
def test_gen_random_loops_out_of_bounds_exit_two_at_once(capsys, loops):
    # 1001 loops of (1, 1) staircases on a linear generator decode to
    # entries of degree 1001, past the parser's limit
    argv = ["gen-random", GL3, "--orbit", "u1", "--pair", "1", "2", "--loops", loops, "--seed", "1"]
    start = time.process_time()
    _exits_two_with_error(argv, capsys)
    assert time.process_time() - start < 1.0


def test_gen_random_at_the_loop_bound_verifies(tmp_path, capsys):
    cfg, dec = str(tmp_path / "r.json"), str(tmp_path / "d.json")
    argv = ["gen-random", GL3, "--orbit", "u1", "--pair", "1", "2", "--loops", "1000", "--seed", "1"]
    assert main(argv + ["-o", cfg]) == 0
    assert main(["decode", cfg, "-o", dec]) == 0
    assert main(["verify", dec]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("verb", ["decompose", "encode", "classify"])
def test_nonsym_tuple_reads_as_its_symmetrized_form(capsys, verb):
    # gl3_raw is the nonsym form of gl3_sym
    assert main([verb, GL3, "--tuple", "gl3_raw"]) == 0
    raw = capsys.readouterr()
    assert main([verb, GL3, "--tuple", "gl3_sym"]) == 0
    sym = capsys.readouterr()
    assert raw.out.replace("gl3_raw", "gl3_sym") == sym.out
    assert raw.err == sym.err == ""


def test_gen_random_bad_pair(capsys):
    args = ["gen-random", GL3, "--orbit", "u1", "--pair", "1", "9",
            "--loops", "1", "--seed", "1"]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_generator_moved_off_the_pair(tmp_path, capsys):
    # directions 3 and 4 of the staircase system move this generator
    orbit = ["--orbit", "u1 + u2 + 2*u3", "--pair", "1", "2"]
    args = ["gen-random", STAIR, *orbit, "--loops", "1", "--seed", "5"]
    assert main(args) == 2
    assert "direction 3 lies outside the pair" in capsys.readouterr().err
    with open(STAIR, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["configs"] = {
        "c": {"generator": "u1 + u2 + 2*u3", "pair": [1, 2], "edges": [[2, 1, 1], [4, 1, 1], [5, 2, 1]]}
    }
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(doc))
    assert main(["decode", str(path)]) == 2
    assert "off-pair-fixed fails at (3)" in capsys.readouterr().err
    assert main(["render", str(path)]) == 1
    out = capsys.readouterr().out
    assert "  off-pair-fixed fails at (3)\n  off-pair-fixed fails at (4)\n" in out


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["verify", GL3, "--no-such-flag"])
    assert info.value.code == 2


def test_radius_flag_is_gone(capsys):
    # orbit membership is decided exactly, so there is no search radius to set
    with pytest.raises(SystemExit) as info:
        main(["classify", STAIR, "--tuple", "main", "--radius", "3"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --radius 3" in err
    assert "Traceback" not in err


def test_exponent_past_the_slot_limit_exits_two(tmp_path, capsys):
    with open(GL3, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["tuples"] = {"huge": {"form": "sym", "polys": ["u1^4294967296", "1", "u2"]}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "4294967296" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "tuple_obj,degree",
    [
        ({"form": "sym", "polys": ["(u1 + 1)^200000", "1", "u2"]}, 200000),
        ({"form": "sym", "polys": ["(u1 + 1)^600*(u2 - 1)^600", "1", "u2"]}, 1200),
        (
            {"form": "factored", "entries": [{"factors": [["u1 + 1", 200000]]}, {}, {}]},
            200000,
        ),
    ],
    ids=["power", "product", "factored"],
)
def test_degree_past_the_limit_exits_two_at_once(tmp_path, capsys, tuple_obj, degree):
    with open(GL3, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["tuples"] = {"big": tuple_obj}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["verify", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"degree {degree} passes the limit 1000" in err
    assert "Traceback" not in err


def test_power_of_a_constant_past_the_bit_limit_exits_two_at_once(tmp_path, capsys):
    with open(GL3, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["tuples"] = {"big": {"form": "sym", "polys": ["7^4000000 + u1", "1", "u2"]}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    err = _exits_two_with_error(["verify", str(path)], capsys)
    assert time.perf_counter() - start < 1.0
    assert "a power of up to 12000000 bits passes the limit 100000" in err
    argv = ["gen-random", GL3, "--orbit", "u1 + 7^4000000", "--pair", "1", "2", "--loops", "1", "--seed", "1"]
    assert "passes the limit 100000" in _exits_two_with_error(argv, capsys)


@pytest.mark.parametrize(
    "poly,bound",
    [("(u1 + u2 + u3)^1000", 167668501), ("(u1 + u2 + u3)^60*(u1 + u2 + u3)^60", 302621)],
    ids=["power", "product"],
)
def test_term_count_past_the_limit_exits_two_at_once(tmp_path, capsys, poly, bound):
    with open(STAIR, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["tuples"] = {"big": {"form": "sym", "polys": [poly, "1", "1", "1"]}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    err = _exits_two_with_error(["verify", str(path)], capsys)
    assert time.perf_counter() - start < 1.0
    assert f"up to {bound} terms pass the limit 200000" in err


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    with open(GL3, encoding="utf-8") as handle:
        text = handle.read().rstrip()
    path = tmp_path / "deep.json"
    path.write_text(text[:-1] + ', "x": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nested too deeply" in err
    assert "Traceback" not in err


def test_deep_nesting_exits_two(tmp_path, capsys):
    with open(GL3, encoding="utf-8") as handle:
        doc = json.load(handle)
    deep = "(" * 5000 + "u1" + ")" * 5000
    doc["tuples"] = {"deep": {"form": "sym", "polys": [deep, "1", "u2"]}}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nested deeper than 100" in err
    assert "Traceback" not in err


_CONFIG = {"generator": "u1", "pair": [1, 2], "edges": [[1, 0, 1], [2, 1, 1]]}


@pytest.mark.parametrize(
    "key,value,named",
    [
        ("tuples", ["x"], "tuples"),
        ("tuples", {"t": {"form": "factored", "entries": [{"factors": 5}, {}, {}]}}, "factors"),
        ("configs", {"c": dict(_CONFIG, edges=3)}, "configs.c.edges"),
        ("configs", {"c": dict(_CONFIG, lattice=7)}, "configs.c.lattice"),
        ("psi", {"forward": 3, "inverse": []}, "psi.forward"),
        ("beta", [3], "beta row 1"),
    ],
)
def test_wrong_container_shapes_exit_two(tmp_path, capsys, key, value, named):
    with open(GL3, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc[key] = value
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("generator,loops", [("2*u1", 2), ("-u1", 3)])
def test_classify_ignores_units_of_decoded_tuples(tmp_path, capsys, generator, loops):
    # decode puts lead^multiplicity into each entry's unit; classify works
    # on the monic factors, so the units change nothing
    cfg, dec, monic = (str(tmp_path / f) for f in ("r.json", "d.json", "m.json"))
    argv = ["gen-random", GL3, f"--orbit={generator}", "--pair", "1", "2"]
    assert main(argv + ["--loops", str(loops), "--seed", "1", "-o", cfg]) == 0
    assert main(["decode", cfg, "-o", dec]) == 0
    with open(dec, encoding="utf-8") as handle:
        doc = json.load(handle)
    entries = doc["tuples"]["random"]["entries"]
    assert any(e["unit"] != 1 for e in entries)
    for e in entries:
        e["unit"] = 1
    with open(monic, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    capsys.readouterr()
    assert main(["classify", dec]) == 0
    got = capsys.readouterr()
    assert main(["classify", monic]) == 0
    assert got == capsys.readouterr()
    assert got.err == ""


def _gl3_with(tmp_path, **changes) -> str:
    with open(GL3, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc.update(changes)
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _exits_two_with_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    return err


def test_a_long_entry_canonical_up_to_its_end_exits_two_at_once(tmp_path, capsys):
    # 1 MB in format_poly's form but for its last character
    entry = "u1 + " * 200_000 + "("
    path = _gl3_with(tmp_path, tuples={"t": {"form": "sym", "polys": [entry, "u1", "u2"]}})
    start = time.process_time()
    assert main(["verify", path]) == 2
    assert time.process_time() - start < 2.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "(at position 1000001)" in err


def test_zero_entry_in_a_tuple_exits_two(tmp_path, capsys):
    path = _gl3_with(tmp_path, tuples={"z": {"form": "sym", "polys": ["0", "u1", "u2"]}})
    assert "tuples.z: entries must be nonzero" in _exits_two_with_error(["verify", path], capsys)


@pytest.mark.parametrize("key", ["pair_a", "pair_b"])
def test_zero_entry_in_a_pair_exits_two(tmp_path, capsys, key):
    pairs = {"pair_a": {"polys": ["u1", "u1", "u2"]}, "pair_b": {"polys": ["u1", "u1", "u2"]}}
    pairs[key] = {"polys": ["u1", "0", "u2"]}
    path = _gl3_with(tmp_path, psi={"forward": ["u1", "u2"], "inverse": ["u1", "u2"]}, **pairs)
    err = _exits_two_with_error(["equiv", path], capsys)
    assert f"{key}.polys: entries must be nonzero" in err


def test_decode_of_a_non_conserving_config_exits_two(tmp_path, capsys):
    path = _gl3_with(tmp_path, configs={"bad": {"generator": "u1", "pair": [1, 2], "edges": [[1, 0, 1]]}})
    assert "conservation fails" in _exits_two_with_error(["decode", path], capsys)


@pytest.mark.parametrize(
    "generator,pair,message",
    [
        ("u1", [2, 1], "pair must be two distinct direction indices in order"),
        ("u1", [1, 1], "pair must be two distinct direction indices in order"),
        ("0", [1, 2], "generator must be nonzero"),
        ("7", [1, 2], "both directions fix the generator; no grid geometry"),
    ],
)
def test_decode_of_an_unbuildable_config_exits_two(tmp_path, capsys, generator, pair, message):
    path = _gl3_with(tmp_path, configs={"c": {"generator": generator, "pair": pair, "edges": []}})
    assert f"configs.c: {message}" in _exits_two_with_error(["decode", path], capsys)


def _loop_of_multiplicity(tmp_path, generator, mult) -> str:
    edges = [[1, 0, mult], [2, 1, mult]]
    return _gl3_with(tmp_path, configs={"c": {"generator": generator, "pair": [1, 2], "edges": edges}})


@pytest.mark.parametrize("generator", ["3*u1", "u1"])
def test_decode_past_the_degree_limit_exits_two_at_once(tmp_path, capsys, generator):
    # printing the unit 3^3000000 would pass the int-to-str digit limit
    path = _loop_of_multiplicity(tmp_path, generator, 3_000_000)
    out = tmp_path / "d.json"
    start = time.process_time()
    assert main(["decode", path, "-o", str(out)]) == 2
    assert time.process_time() - start < 1.0
    got = capsys.readouterr()
    assert got.out == "" and "Traceback" not in got.err
    assert got.err.startswith("error:")
    assert "decoded entry 1 has degree 3000000, past the limit 1000" in got.err
    assert not out.exists()


def test_decode_at_the_degree_limit_verifies_and_classifies(tmp_path, capsys):
    dec = str(tmp_path / "d.json")
    assert main(["decode", _loop_of_multiplicity(tmp_path, "3*u1", 1000), "-o", dec]) == 0
    assert main(["verify", dec]) == 0
    assert main(["classify", dec]) == 0
    assert "PASS" in capsys.readouterr().out


def test_render_of_a_far_off_config_exits_two(tmp_path, capsys):
    # a valid 1-loop picture moved 2*10^6 up in doubled coordinates
    config = tmp_path / "config.json"
    argv = ["gen-random", GL3, "--orbit", "u1", "--pair", "1", "2", "--loops", "1", "--seed", "1"]
    assert main([*argv, "-o", str(config)]) == 0
    doc = json.loads(config.read_text())
    for edge in doc["configs"]["random"]["edges"]:
        edge[1] += 2 * 10**6
    config.write_text(json.dumps(doc))
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["render", str(config)]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: the picture spans 3 x 1000004 grid lines, past the limit of 10000 per axis" in err


def test_multiquiver_zero_row_exits_two(tmp_path, capsys):
    path = _gl3_with(tmp_path, beta=[[0, 0, 0], [0, -1, 1]])
    assert "row 1 is zero" in _exits_two_with_error(["multiquiver", "--beta", path], capsys)


@pytest.mark.parametrize(
    "orbit,pair,message",
    [
        ("0", ("1", "2"), "rank-1 restricted stabilizer"),
        ("u1", ("5", "6"), "pair must be two distinct direction indices"),
        ("u1", ("2", "3"), "direction 1 lies outside the pair"),
    ],
)
def test_gen_random_without_a_staircase_exits_two(capsys, orbit, pair, message):
    argv = ["gen-random", GL3, "--orbit", orbit, "--pair", *pair, "--loops", "1", "--seed", "1"]
    assert message in _exits_two_with_error(argv, capsys)


def test_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    with open(GL3, "rb") as handle:
        path.write_bytes(handle.read().replace(b'"u1_orbit"', b'"u1_\xe9"'))
    assert "is not UTF-8 text" in _exits_two_with_error(["verify", str(path)], capsys)


def test_integer_past_the_digit_limit_in_json_exits_two(tmp_path, capsys):
    path = tmp_path / "digits.json"
    with open(GL3, encoding="utf-8") as handle:
        path.write_text(handle.read().replace('"m": 2', '"m": ' + "1" * 5000, 1))
    err = _exits_two_with_error(["verify", str(path)], capsys)
    assert "not valid JSON" in err and "digits" in err


@pytest.mark.parametrize("orbit", ["u1 + " + "7" * 5000, "u1^" + "7" * 5000, "u" + "7" * 5000])
def test_integer_past_the_digit_limit_in_an_expression_exits_two(capsys, orbit):
    argv = ["gen-random", GL3, "--orbit", orbit, "--pair", "1", "2", "--loops", "1", "--seed", "1"]
    assert "5000 digits is too long" in _exits_two_with_error(argv, capsys)


def test_internal_value_error_propagates(monkeypatch):
    # exit 2 is kept for the package's own errors; any other ValueError is a bug
    def broken(sys, entries):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "check_factored", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["verify", STAIR, "--tuple", "main"])


def _factored_gl3(tmp_path, *factors) -> str:
    entries = [{"unit": 1, "factors": [] if f is None else [[f, 1]]} for f in factors]
    return _gl3_with(tmp_path, tuples={"t": {"form": "factored", "entries": entries}})


@pytest.mark.parametrize(
    "factors, entry",
    [(("u1 + u2", "u1 + u2", "u1 + u2"), 1), (("u1", None, "u1"), 1)],
)
def test_decompose_of_a_piece_with_a_moved_constant_entry_prints_nothing(tmp_path, capsys, factors, entry):
    # decompose succeeds; the support pair of a piece then fails.  In the
    # second case the piece of entry 3's factor comes first by its
    # generator's text, and direction 1 moves it
    path = _factored_gl3(tmp_path, *factors)
    assert main(["decompose", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: entry {entry} is constant but direction {entry} moves the generator" in captured.err


def test_multiquiver_with_a_zero_beta_row_prints_nothing(tmp_path, capsys):
    # multiquiver rejects the zero row before it prints anything
    path = tmp_path / "beta.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "alpha": [[1, 0], [0, 1]], "beta": [[1, -1], [0, 0]]}))
    assert main(["multiquiver", "--beta", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: row 2 is zero" in captured.err
