"""Byte-identity gate: CLI outputs and verify check names stay fixed.

The SHA-256 digest of every ``roots``, ``enumerate`` and ``automaton``
output, in every format, on the four desk types is compared with the
digests recorded in ``byte_identity.json``; each ``verify`` suite is
compared by its ordered check names only, so reports may gain fields.

Regenerate the record (only when an output change is intended) with

    PYTHONPATH=src python tests/test_byte_identity.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest
from conftest import suite_report

from shilow import cli, verify

RECORD = Path(__file__).with_name("byte_identity.json")
TYPES = [f"{family}{rank}" for family, rank in verify.DESK_TYPES]

COMMANDS = [("roots", fmt) for fmt in ("text", "json")]
COMMANDS += [(f"enumerate {what}", fmt)
             for what in ("low", "regions", "dominant", "ideals")
             for fmt in ("text", "json", "csv")]
COMMANDS += [("automaton", fmt) for fmt in ("dot", "json", "text")]


def output_digest(name: str, command: str, fmt: str) -> str:
    argv = command.split() + ["--type", name[0], "--rank", name[1:],
                              "--format", fmt]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    assert code == 0, argv
    return hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


def check_names(name: str, suite: str) -> list[str]:
    return [check.name for check in suite_report(suite, name[0], int(name[1:])).checks]


def record() -> dict:
    return {
        "outputs": {name: {f"{command} --format {fmt}":
                           output_digest(name, command, fmt)
                           for command, fmt in COMMANDS}
                    for name in TYPES},
        "verify": {name: {suite: check_names(name, suite)
                          for suite in verify.SUITES}
                   for name in TYPES},
    }


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", TYPES)
def test_cli_outputs_byte_identical(recorded, name):
    got = {f"{command} --format {fmt}": output_digest(name, command, fmt)
           for command, fmt in COMMANDS}
    assert got == recorded["outputs"][name]


@pytest.mark.parametrize("name", TYPES)
def test_verify_check_names_unchanged(recorded, name):
    got = {suite: check_names(name, suite) for suite in verify.SUITES}
    assert got == recorded["verify"][name]


if __name__ == "__main__":
    RECORD.write_text(json.dumps(record(), indent=2) + "\n", encoding="utf-8")
