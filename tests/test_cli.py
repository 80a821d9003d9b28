"""Command-line interface: output, formats, and exit codes."""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from shilow import (AffineWeylGroup, cli, enumerate_regions, region_walk, regions,
                    report, root_system, rootdata, signtypes, verify)
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


@pytest.mark.parametrize("family", ["AB", ""])
def test_roots_family_of_several_or_no_letters_is_usage_error(capsys, family):
    code, out, err = run_cli(capsys, "roots", "--type", family, "--rank", "2")
    assert code == 2
    assert not out
    assert f"unknown family {family!r}" in err


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
    scan = region_walk(group)
    table = enumerate_regions(group, scan=scan)
    monkeypatch.setattr(verify, "region_walk", lambda *args, **kwargs: scan)
    monkeypatch.setattr(regions, "enumerate_regions", lambda group, scan, budget: table)
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
                detail={"note": "synthetic failure"})

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


def test_root_data_error_is_a_failure_without_traceback(capsys, monkeypatch):
    monkeypatch.setattr(rootdata, "_cartan_matrix", lambda family, n: [[2, 0], [0, 2]])
    code, out, err = run_cli(capsys, "roots", "--type", "A", "--rank", "2")
    assert code == cli.EXIT_FAIL
    assert not out
    assert err == "error: Cartan diagram not connected\n"


@pytest.mark.parametrize("suite", ["main-theorem", "tables"])
def test_a_verify_command_builds_its_root_system_once(capsys, monkeypatch, suite):
    """The suite's context builds the type, and the rank-2 restriction
    index reads that same system: one B3 build per command, with the
    restriction index emptied first.  The group is built only by a suite
    that reads it; on B3 the tables suite does not."""
    monkeypatch.setattr(signtypes, "_RESTRICTIONS", {}, raising=False)
    builds, group_builds = [], []
    init = rootdata.RootSystem.__init__
    group_init = AffineWeylGroup.__init__

    def counted(self, cartan_type):
        builds.append(cartan_type.name)
        init(self, cartan_type)

    def counted_group(self, system):
        group_builds.append(system.cartan_type.name)
        group_init(self, system)
    monkeypatch.setattr(rootdata.RootSystem, "__init__", counted)
    monkeypatch.setattr(AffineWeylGroup, "__init__", counted_group)
    code, _, _ = run_cli(capsys, "verify", suite, "--type", "B", "--rank", "3")
    assert code == 0
    assert builds.count("B3") == 1
    assert group_builds.count("B3") == {"main-theorem": 1, "tables": 0}[suite]


_FREEZE = """
import contextlib, gc, io, json, weakref
from shilow import cli

def run():
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["roots", "--type", "A", "--rank", "2"])

imported = gc.get_freeze_count()
codes = [run()]
first = gc.get_freeze_count()
codes.append(run())
second = gc.get_freeze_count()

class Node:
    pass

node = Node()
node.self = node
ref = weakref.ref(node)
del node
gc.collect()
print(json.dumps([imported, first, second, codes, ref() is None]))
"""


def _checkout_env() -> dict[str, str]:
    """The environment with this checkout's package first on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src,
                                                        os.environ.get("PYTHONPATH"))))}


def _fresh_python(program: str) -> str:
    """The standard output of ``program`` run by a fresh interpreter that
    imports this checkout's package."""
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True,
                          text=True, timeout=120, env=_checkout_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_main_freezes_the_import_time_heap_once_per_process():
    """Importing the CLI leaves the collector alone; the first ``main``
    freezes the heap, a second one freezes nothing more, and a cycle made
    afterwards is still reclaimed.  A fresh interpreter, since a freeze
    lasts for the process."""
    imported, first, second, codes, reclaimed = json.loads(_fresh_python(_FREEZE))
    assert imported == 0
    assert first > 0
    assert second == first
    assert codes == [0, 0]
    assert reclaimed


def test_importing_the_cli_loads_no_dataclasses_inspect_or_csv():
    """A fresh ``import shilow.cli`` loads neither ``dataclasses`` nor the
    ``inspect`` chain behind it, and not ``csv``, which only a CSV export
    imports; nor ``hashlib``, nor ``array``, which ``Automaton.order``
    imports on first use.  (``typing`` and ``re`` go unasserted: ``site``
    may load them.)"""
    program = ("import sys\nimport shilow.cli\n"
               "print(sorted({'dataclasses', 'inspect', 'csv', 'hashlib', 'array'}"
               " & set(sys.modules)))")
    assert _fresh_python(program) == "[]\n"


def test_descent_walls_refuses_its_member_walk_before_building_the_table(
        capsys, monkeypatch):
    """At budget 20 the A2 walk keeps its 16 minima, but the member walk's
    ball of 31 elements is refused, exit 3, before any region table is
    built."""
    def no_table(*args, **kwargs):
        raise AssertionError("enumerate_regions called")
    monkeypatch.setattr(regions, "enumerate_regions", no_table)
    code, out, err = run_cli(capsys, "verify", "descent-walls", "--type", "A",
                             "--rank", "2", "--budget", "20")
    assert code == cli.EXIT_BUDGET
    assert out == ""
    assert err == ("error: the member walk to length 4 would visit 31 elements, "
                   "more than the element budget (bound: 20)\n")


@pytest.mark.parametrize("argv, ball", [
    (("verify", "recurrences", "--budget", "10"), "to length 10 would visit 166"),
    (("verify", "automaton", "--budget", "20"), "to length 10 would visit 166"),
    (("verify", "descent-walls", "--budget", "20"), "to length 4 would visit 31"),
    (("automaton", "--format", "text", "--bound", "150", "--budget", "100"),
     "to length 150 would visit 33976"),
], ids=["recurrences", "automaton-suite", "descent-walls", "automaton-text"])
def test_every_full_ball_walk_is_refused_from_bott_series(capsys, monkeypatch,
                                                           argv, ball):
    """Each A2 walk of the whole ball to a known length is refused, exit 3,
    from Bott's series before the walk takes a step.  An unpruned walk
    counts when it takes its first step; the pruned region walk behind
    the low set is not the refused ball."""
    shells = AffineWeylGroup.shells
    walks = []

    def counted(group, keep=None):
        def walk():
            if keep is None:
                walks.append(group)
            yield from shells(group, keep=keep)
        return walk()
    monkeypatch.setattr(AffineWeylGroup, "shells", counted)
    code, out, err = run_cli(capsys, *argv, "--type", "A", "--rank", "2")
    budget = argv[argv.index("--budget") + 1]
    assert code == cli.EXIT_BUDGET
    assert out == ""
    assert err.endswith(f"{ball} elements, more than the element budget "
                        f"(bound: {budget})\n")
    assert walks == []


def test_output_file(tmp_path, capsys):
    target = tmp_path / "roots.json"
    code, out, _ = run_cli(capsys, "roots", "--type", "A", "--rank", "2",
                           "--format", "json", "--output", str(target))
    assert code == 0
    assert not out
    assert json.loads(target.read_text())["rank"] == 2


@pytest.mark.parametrize("argv", [
    ("verify", "recurrences", "--bound", "0"),
    ("verify", "recurrences", "--bound", "-3"),
    ("automaton", "--format", "text", "--bound", "-1"),
])
def test_bound_below_one_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(list(argv))
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "--bound" in captured.err and "at least 1" in captured.err


def test_budget_below_one_is_usage_error(capsys):
    """``--budget`` shares the ``--bound`` validator."""
    with pytest.raises(SystemExit) as info:
        cli.main(["enumerate", "low", "--budget", "0"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "--budget" in captured.err and "at least 1" in captured.err


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "roots.txt"
    code, out, err = run_cli(capsys, "roots", "--output", str(target))
    assert code == 2
    assert not out
    assert str(target) in err


def test_unwritable_output_of_a_streamed_export_is_usage_error(tmp_path, capsys):
    """The automaton exports are written as they are produced; an output
    that cannot be opened is still a usage error, before any chunk."""
    target = tmp_path / "missing" / "machine.dot"
    code, out, err = run_cli(capsys, "automaton", "--format", "dot",
                             "--output", str(target))
    assert code == 2
    assert not out
    assert err.startswith(f"error: cannot write {target}")


@pytest.mark.parametrize("what", ["low", "regions", "dominant", "ideals"])
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_enumerate_output_file_holds_the_stdout_bytes(tmp_path, capsys, what, fmt):
    argv = ("enumerate", what, "--type", "A", "--rank", "2", "--format", fmt)
    code, out, _ = run_cli(capsys, *argv)
    assert code == cli.EXIT_PASS
    target = tmp_path / f"{what}.{fmt}"
    code, printed, _ = run_cli(capsys, *argv, "--output", str(target))
    assert code == cli.EXIT_PASS
    assert printed == ""
    assert target.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("argv", [
    ("enumerate", "low", "--type", "A", "--rank", "3"),  # fails at the last flush
    ("automaton", "--type", "B", "--rank", "3"),  # fails mid-stream
])
def test_a_closed_pipe_exits_quietly_with_141(argv):
    """A reader that closed the pipe before reading (as ``| head`` may)
    ends the command with the shell's status for SIGPIPE, and nothing on
    standard error: no traceback, no "Exception ignored" at exit."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "shilow.cli", *argv],
                              stdout=write, stderr=subprocess.PIPE, text=True,
                              timeout=120, env=_checkout_env())
    finally:
        os.close(write)
    assert proc.returncode == cli.EXIT_PIPE == 141
    assert proc.stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_a_full_standard_output_is_a_write_error():
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "shilow.cli", "roots"],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              timeout=120, env=_checkout_env())
    assert proc.returncode == cli.EXIT_USAGE
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: cannot write standard output: ")


def test_unknown_subcommand_rejected(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["polish"])
    assert info.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "shilow.cli", "roots", "--type", "A",
         "--rank", "2"],
        capture_output=True, text=True, timeout=120, env=_checkout_env())
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


@pytest.mark.parametrize("argv", [
    ("enumerate", "low"),
    ("enumerate", "regions"),
    ("enumerate", "regions", "--format", "csv"),
    ("enumerate", "dominant", "--format", "csv"),
    ("enumerate", "regions", "--format", "json"),
])
def test_no_region_export_walks_the_members(capsys, monkeypatch, argv):
    """The JSON export prints each region's minimum magnitudes from the
    minimum itself; no export builds the member index."""
    built = []
    index = regions.RegionTable.members
    monkeypatch.setattr(regions.RegionTable, "members",
                        property(lambda table: built.append(table) or index.func(table)))
    code, _, _ = run_cli(capsys, *argv, "--type", "A", "--rank", "2")
    assert code == 0
    assert not built
