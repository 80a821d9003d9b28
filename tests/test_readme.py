"""The README's examples run as written.

The ``python`` block under "Library" is executed, and each ``shilow …``
line of the command blocks goes through ``cli.main`` (its comment and
any shell redirect dropped) and must exit 0.
"""
from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from shilow import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


def _commands() -> list[list[str]]:
    commands = []
    for block in _blocks("sh"):
        for line in block.splitlines():
            if line.startswith("shilow "):
                line = line.split("#", 1)[0].split(">", 1)[0]
                commands.append(shlex.split(line)[1:])
    return commands


COMMANDS = _commands()


def test_the_readme_lists_commands():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_zero(capsys, argv):
    assert cli.main(argv) == cli.EXIT_PASS
    assert capsys.readouterr().out


def test_readme_python_block_runs():
    [block] = _blocks("python")
    exec(compile(block, str(README), "exec"), {})
