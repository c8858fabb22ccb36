"""The README's walkthrough and library example run as written."""

import os
import re
import shlex

from weylshift.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _block(after: str, lang: str) -> str:
    """The first fenced `lang` block after the line `after`."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    match = re.search(re.escape(after) + r"\n\n```" + lang + r"\n(.*?)```", text, re.S)
    assert match, f"no {lang} block after {after!r}"
    return match.group(1)


def test_walkthrough(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "example.json").write_text(_block("A small complete example:", "json"))
    lines = _block("With this saved as `example.json`:", "sh").splitlines()
    assert len(lines) == 8
    out = {}
    for line in lines:
        program, *argv = shlex.split(line, comments=True)
        assert program == "weylshift"
        assert main(argv) == 0, line
        out[line] = capsys.readouterr().out
    verify = [text for line, text in out.items() if line.split()[1] == "verify"]
    assert len(verify) == 2 and all("PASS" in text for text in verify)
    (decompose,) = [text for line, text in out.items() if line.split()[1] == "decompose"]
    assert "2 orbital piece(s)" in decompose
    assert re.findall(r"support pair (\S+)", decompose) == ["(1,2)", "(2,3)"]


def test_library_example():
    exec(_block("## Library", "python"), {})
