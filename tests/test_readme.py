"""The README's examples run as written: every command of its CLI block, and
every stated value of its Library block."""

import re
import shlex
from pathlib import Path

from flatrank.labcli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, fence: str) -> list[str]:
    """The lines of the first code block after ``heading``."""
    after = README[README.index(heading):]
    start = after.index(fence) + len(fence)
    return after[start:after.index("```", start)].strip().splitlines()


def test_cli_block_runs_with_the_ranks_it_states(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    lines = _block("## CLI", "```\n")
    assert {line.split()[1] for line in lines} == {
        "flatten", "verify", "scan", "bounds", "permanent", "rank"}
    ranks = []
    for line in lines:
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "flatrank"
        if argv[1] == "rank":
            # Dump a matrix of known rank for the command to read back.
            assert main(["flatten", "x1*x2*x3", "--kind", "koszul", "--k", "1", "--p", "1",
                         "--dump-matrix", argv[2]]) == 0
            capsys.readouterr()
        code = main(argv[1:])
        out = capsys.readouterr().out
        assert code == 0, line
        stated = re.match(r"\s*rank (\d+)", comment)
        if stated:
            assert f"rank: {stated.group(1)}\n" in out, line
            ranks.append(stated.group(1))
        if argv[1] == "rank":
            assert "rank: 8\n" in out
    assert ranks == ["3", "8"]


def test_library_block_gives_the_values_it_states():
    lines = _block("## Library", "```python\n")
    namespace: dict = {}
    exec("\n".join(line for line in lines if "#" not in line), namespace)
    checked = []
    for line in lines:
        if "#" in line:
            expression, _, comment = line.partition("#")
            # A value, maybe "== a call"; "20 == S_formula(1, 4, 2)" checks both.
            stated = re.match(r"\s*(\d+(?: == \w+\([^)]*\))?)", comment).group(1)
            assert eval(f"({expression.strip()}) == {stated}", namespace), line
            checked.append(stated)
    assert checked == ["6", "20 == S_formula(1, 4, 2)", "7"]
