"""CLI verify on a grown input: the expanded cubic staircase of
`gen-random --orbit "u1^3 - u1 - (u2 + u3)^2" --pair 1 2 --seed 1`.

Every entry depends on u1 and u2 + u3 alone, so verify checks the tuple
in two variables.  The 5-loop tuple holds entries of 2,373 and 7,576
terms; checked in all three variables it took about 20 s of CPU time.
"""

import time
from fractions import Fraction

from conftest import data_path
from consistency_reference import reference_symmetric
from weylshift import problemfile as pf
from weylshift.cli import main
from weylshift.consistency import SolutionTuple, unsymmetrize

CUBIC = "u1^3 - u1 - (u2 + u3)^2"
BUDGET_S = 3.0


def expanded_staircase(tmp_path, loops: int) -> SolutionTuple:
    config = str(tmp_path / f"config{loops}.json")
    decoded = str(tmp_path / f"decoded{loops}.json")
    argv = ["gen-random", data_path("staircase.json"), "--orbit", CUBIC, "--pair", "1", "2"]
    assert main([*argv, "--loops", str(loops), "--seed", "1", "--output", config]) == 0
    assert main(["decode", config, "--output", decoded]) == 0
    (entry,) = pf.load_path(decoded).tuples.values()
    return entry.as_factored().expand()


def timed_verify(tmp_path, capsys, sol: SolutionTuple, form: str) -> tuple[int, str, float]:
    """Exit code, standard output and CPU seconds of `verify` on sol,
    written to a problem file in the given form."""
    path = tmp_path / f"{form}.json"
    path.write_text(pf.dumps(pf.file_obj(sol.sys, tuples={"t": pf.solution_obj(sol, form)})))
    capsys.readouterr()
    start = time.process_time()
    code = main(["verify", str(path)])
    return code, capsys.readouterr().out, time.process_time() - start


def test_verify_passes_the_expanded_5_loop_staircase_within_budget(tmp_path, capsys):
    sol = expanded_staircase(tmp_path, 5)
    assert [len(p) for p in sol.polys[:2]] == [2373, 7576]
    for form, tup in (("sym", sol), ("nonsym", unsymmetrize(sol))):
        code, out, took = timed_verify(tmp_path, capsys, tup, form)
        assert (code, out) == (0, f"tuple t ({form} form): PASS\n")
        assert took < BUDGET_S, f"{form} form took {took:.2f} s"


def test_a_corrupted_3_loop_staircase_fails_as_the_reference_says(tmp_path, capsys):
    sol = expanded_staircase(tmp_path, 3)
    bad = SolutionTuple(sol.sys, (sol.polys[0] + Fraction(1, 7), *sol.polys[1:]))
    code, out, _ = timed_verify(tmp_path, capsys, bad, "sym")
    want = reference_symmetric(bad)
    assert not want.passed
    lines = "".join(f"  {f.describe()}\n" for f in want.failures)
    assert (code, out) == (1, "tuple t (sym form): FAIL\n" + lines)
