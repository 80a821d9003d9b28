"""Command-line interface: output, formats, and exit codes."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from shilow import (AffineWeylGroup, certified_scan, cli, enumerate_regions, regions,
                    report, root_system, verify)
from shilow.elements import KernelError
from shilow.ratlp import CertificateError


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_a2(capsys):
    code, out, _ = run_cli(capsys, "roots", "--type", "A", "--rank", "2")
    assert code == 0
    assert "3 positive roots" in out
    assert "coxeter number h = 3" in out
    assert "a1+a2" in out


def test_roots_b2(capsys):
    code, out, _ = run_cli(capsys, "roots", "--type", "B", "--rank", "2")
    assert code == 0
    assert "4 positive roots" in out
    assert "2a1+a2" in out


def test_roots_rank_zero_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "roots", "--type", "A", "--rank", "0")
    assert code == 2
    assert not out
    assert "invalid rank" in err


def test_roots_json(capsys):
    code, out, _ = run_cli(capsys, "roots", "--type", "G", "--rank", "2",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["coxeter_number"] == 6
    assert len(data["positive_roots"]) == 6
    assert data["rank2_tables"]["G2"]["count"] == 49


def test_enumerate_low_summary(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "low",
                           "--type", "A", "--rank", "2")
    assert code == 0
    assert "low elements of affine A2: 16" in out


def test_enumerate_dominant_summary(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "dominant",
                           "--type", "G", "--rank", "2")
    assert code == 0
    assert "dominant regions of affine G2: 8" in out


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_the_dominant_export_builds_words_for_the_dominant_regions_only(
        monkeypatch, capsys, fmt):
    """``enumerate dominant`` on B3 prints its 20 regions and makes one
    reduced word for each of them, not one for each of the 343 regions."""
    group = AffineWeylGroup(root_system("B", 3))
    scan = certified_scan(group)
    table = enumerate_regions(group, scan=scan)
    monkeypatch.setattr(cli, "certified_scan", lambda *args, **kwargs: scan)
    monkeypatch.setattr(regions, "enumerate_regions", lambda group, scan: table)
    calls = []
    word = AffineWeylGroup.word_from_element

    def counted(group, w):
        calls.append(w)
        return word(group, w)
    monkeypatch.setattr(AffineWeylGroup, "word_from_element", counted)
    code, out, _ = run_cli(capsys, "enumerate", "dominant", "--type", "B",
                           "--rank", "3", "--format", fmt)
    assert code == cli.EXIT_PASS
    printed = json.loads(out)["count"] if fmt == "json" else len(out.splitlines()) - 1
    assert printed == len(calls) == len(table.dominant_regions()) == 20


def test_enumerate_regions_count(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "regions",
                           "--type", "A", "--rank", "3")
    assert code == 0
    assert "regions of affine A3: 125" in out


def test_enumerate_ideals(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "ideals",
                           "--type", "B", "--rank", "2")
    assert code == 0
    assert "root poset ideals of B2: 6" in out


def test_enumerate_low_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "low",
                           "--type", "B", "--rank", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 25
    assert data["elements"][0]["word"] == []
    lengths = [e["length"] for e in data["elements"]]
    assert lengths == sorted(lengths)


def test_enumerate_regions_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "regions",
                           "--type", "A", "--rank", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sign_type,separation,descent_roots,minimal_word,length,dominant"
    assert len(lines) == 17


def test_enumerate_budget_exceeded(capsys):
    code, out, err = run_cli(capsys, "enumerate", "low",
                             "--type", "G", "--rank", "2", "--budget", "10")
    assert code == 3
    assert "10" in err


def test_enumerate_length_cap_exceeded(capsys):
    code, _, err = run_cli(capsys, "enumerate", "low",
                           "--type", "A", "--rank", "2", "--bound", "2")
    assert code == 3
    assert "2" in err


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv(verify.BUDGET_ENV_VAR, "10")
    code, _, err = run_cli(capsys, "enumerate", "low",
                           "--type", "G", "--rank", "2")
    assert code == 3
    assert "10" in err


def test_budget_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv(verify.BUDGET_ENV_VAR, "lots")
    code, _, err = run_cli(capsys, "enumerate", "low",
                           "--type", "A", "--rank", "2")
    assert code == 2
    assert verify.BUDGET_ENV_VAR in err


def test_budget_below_one_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "enumerate", "low", "--budget", "0")
    assert code == 2
    assert not out
    assert "budget must be positive" in err


def test_verify_pass_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "main-theorem",
                           "--type", "B", "--rank", "2")
    assert code == 0
    assert "result: PASS" in out
    assert "[PASS] low_element_count" in out


def test_verify_pass_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "descent-walls",
                           "--type", "A", "--rank", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["suite"] == "descent-walls"
    assert data["type"] == "A"
    assert data["rank"] == 2
    assert "bound" in data
    assert data["checks"]
    for check in data["checks"]:
        assert set(check) >= {"name", "status"}
        assert check["status"] == "pass"


def test_verify_failure_exit_and_counterexample(capsys, monkeypatch):
    failing = report.Report(suite="main-theorem", family="A", rank=2)
    failing.add("demo_check", False, counterexample={"word": [0, 1]},
                detail="synthetic failure")

    def fake_run_suite(suite, family, rank, bound=None, budget=None, seed=None):
        return failing

    monkeypatch.setattr(verify, "run_suite", fake_run_suite)
    code, out, _ = run_cli(capsys, "verify", "main-theorem",
                           "--type", "A", "--rank", "2", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["checks"][0]["status"] == "fail"
    assert data["checks"][0]["counterexample"] == {"word": [0, 1]}


def test_verify_seed_recorded(capsys):
    code, out, _ = run_cli(capsys, "verify", "automaton",
                           "--type", "A", "--rank", "2",
                           "--seed", "7", "--format", "json")
    assert code == 0
    assert json.loads(out)["seed"] == 7


def test_automaton_dot(capsys):
    code, out, _ = run_cli(capsys, "automaton", "--type", "A", "--rank", "2")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") > 0


def test_automaton_json(capsys):
    code, out, _ = run_cli(capsys, "automaton", "--type", "B", "--rank", "2",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["states"] == 25


def test_automaton_text_counts(capsys):
    code, out, _ = run_cli(capsys, "automaton", "--type", "A", "--rank", "2",
                           "--format", "text", "--bound", "4")
    assert code == 0
    assert "16 states" in out
    assert "1, 3, 6, 12, 18" in out


def test_automaton_budget_exceeded(capsys):
    code, out, err = run_cli(capsys, "automaton", "--type", "A", "--rank", "3",
                             "--budget", "10")
    assert code == 3
    assert not out
    assert "automaton states exceeded the budget (bound: 10)" in err


def test_kernel_error_is_a_failure_without_traceback(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise KernelError("the finite walk reached 7 elements")

    monkeypatch.setattr(verify, "run_suite", broken)
    code, out, err = run_cli(capsys, "verify", "recurrences",
                             "--type", "A", "--rank", "2")
    assert code == cli.EXIT_FAIL
    assert not out
    assert err == "error: the finite walk reached 7 elements\n"


def test_certificate_error_is_a_failure_without_traceback(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise CertificateError("Farkas vector [1, 0] does not pair negatively")

    monkeypatch.setattr(verify, "run_suite", broken)
    code, out, err = run_cli(capsys, "verify", "main-theorem",
                             "--type", "A", "--rank", "2")
    assert code == cli.EXIT_FAIL
    assert not out
    assert err == "error: Farkas vector [1, 0] does not pair negatively\n"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "roots.json"
    code, out, _ = run_cli(capsys, "roots", "--type", "A", "--rank", "2",
                           "--format", "json", "--output", str(target))
    assert code == 0
    assert not out
    assert json.loads(target.read_text())["rank"] == 2


@pytest.mark.parametrize("argv", [
    ("enumerate", "low", "--bound", "0"),
    ("verify", "recurrences", "--bound", "-3"),
    ("automaton", "--bound", "-1", "--format", "text"),
])
def test_bound_below_one_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(list(argv))
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "--bound" in captured.err and "at least 1" in captured.err


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "roots.txt"
    code, out, err = run_cli(capsys, "roots", "--output", str(target))
    assert code == 2
    assert not out
    assert str(target) in err


def test_unknown_subcommand_rejected(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["polish"])
    assert info.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "shilow.cli", "roots", "--type", "A",
         "--rank", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "3 positive roots" in proc.stdout


def test_console_script():
    exe = shutil.which("shilow")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "enumerate", "low", "--type", "A", "--rank", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "low elements of affine A2: 16" in proc.stdout


@pytest.mark.parametrize("argv, builds", [
    (("enumerate", "low"), False),
    (("enumerate", "regions"), False),
    (("enumerate", "regions", "--format", "csv"), False),
    (("enumerate", "dominant", "--format", "csv"), False),
    (("enumerate", "regions", "--format", "json"), True),
])
def test_only_the_json_region_export_walks_the_members(capsys, monkeypatch, argv, builds):
    """The JSON export prints each region's minimum magnitudes, read from
    the member index; the other exports never build it."""
    built = []
    index = regions.RegionTable.members
    monkeypatch.setattr(regions.RegionTable, "members",
                        property(lambda table: built.append(table) or index.func(table)))
    code, _, _ = run_cli(capsys, *argv, "--type", "A", "--rank", "2")
    assert code == 0
    assert bool(built) == builds
