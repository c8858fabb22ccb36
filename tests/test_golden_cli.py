"""Byte-for-byte CLI outputs against files under tests/golden/cli/.

Each case records the exit code, stdout and stderr of one `main(argv)` call:
`decompose`, `encode` and `classify` of every tuple, `verify` of every tuple
in its own form and forced into `--form sym` and `--form nonsym` (a forced
form fails with witnesses), and `decode` of every config in tests/data/, plus `gen-random -> decode -> classify` round trips
at fixed seeds.  Regenerate the files (only for an intended change of
output) with `PYTHONPATH=src python tests/test_golden_cli.py`.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conftest import DATA, golden_path
from weylshift.cli import main
from weylshift.problemfile import load_path

CLI_GOLDEN = golden_path("cli")

# (name, file, generator, pair, loops, seed)
ROUND_TRIPS = [
    ("staircase.u1.loops3.seed7", "staircase.json", "u1", (1, 2), 3, 7),
    ("gl3.u1.loops4.seed2", "gl3.json", "u1", (1, 2), 4, 2),
]


def _data_cases():
    for fname in sorted(os.listdir(DATA)):
        path = os.path.join(DATA, fname)
        stem = fname.removesuffix(".json")
        doc = load_path(path)
        for tname in doc.tuples:
            for verb in ("decompose", "encode", "classify"):
                yield f"{stem}.{tname}.{verb}", [verb, path, "--tuple", tname]
            yield f"{stem}.{tname}.verify", ["verify", path, "--tuple", tname]
            for form in ("sym", "nonsym"):
                yield f"{stem}.{tname}.verify-{form}", ["verify", path, "--tuple", tname, "--form", form]
        for cname in doc.configs:
            yield f"{stem}.{cname}.decode", ["decode", path, "--config", cname]


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _round_trip_steps(case, tmp_dir):
    """Yield (step name, exit code, stdout, stderr) for one round trip, feeding
    each step's stdout to the next as a file."""
    name, fname, gen, pair, loops, seed = case
    argv = ["gen-random", os.path.join(DATA, fname), "--orbit", gen,
            "--pair", str(pair[0]), str(pair[1]),
            "--loops", str(loops), "--seed", str(seed)]
    for verb in ("gen-random", "decode", "classify"):
        if verb != "gen-random":
            argv = [verb, path]
        code, out, err = _run(argv)
        yield f"{name}.{verb}", code, out, err
        path = os.path.join(tmp_dir, f"{name}.{verb}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(out)


def _render(code: int, out: str, err: str) -> str:
    return f"exit {code}\n--- stderr\n{err}--- stdout\n{out}"


def _golden(name: str) -> str:
    with open(os.path.join(CLI_GOLDEN, name + ".txt"), encoding="utf-8") as handle:
        return handle.read()


DATA_CASES = list(_data_cases())


@pytest.mark.parametrize("name,argv", DATA_CASES, ids=[c[0] for c in DATA_CASES])
def test_data_case_matches_golden(name, argv):
    assert _render(*_run(argv)) == _golden(name)


@pytest.mark.parametrize("case", ROUND_TRIPS, ids=[c[0] for c in ROUND_TRIPS])
def test_round_trip_matches_golden(case, tmp_path):
    for step, *result in _round_trip_steps(case, str(tmp_path)):
        assert _render(*result) == _golden(step), step


def regenerate() -> None:
    os.makedirs(CLI_GOLDEN, exist_ok=True)
    written = {name: _render(*_run(argv)) for name, argv in DATA_CASES}
    with tempfile.TemporaryDirectory() as tmp:
        for case in ROUND_TRIPS:
            for step, *result in _round_trip_steps(case, tmp):
                written[step] = _render(*result)
    for name, text in written.items():
        with open(os.path.join(CLI_GOLDEN, name + ".txt"), "w", encoding="utf-8") as handle:
            handle.write(text)
    print(f"wrote {len(written)} files to {CLI_GOLDEN}")


if __name__ == "__main__":
    regenerate()
