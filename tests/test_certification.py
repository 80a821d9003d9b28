"""The enumerations' own cross-checks raise ``CertificationError``.

Each certifying check of ``certified_scan``, ``enumerate_low`` and
``enumerate_regions`` is an explicit raise, so an injected fault still
surfaces under ``python -O``; the CLI exits 4 on it and a suite check
fails on it.
"""
from __future__ import annotations

import ast
import dataclasses
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from shilow import (AffineWeylGroup, CertificationError, certified_scan, cli,
                    condition_star, enumerate_low, enumerate_regions, lowness,
                    regions, root_system, sign_of_shi, signtypes, verify)
from shilow.report import Report

SRC = Path(__file__).resolve().parents[1] / "src"


def _group(family: str = "A", rank: int = 2) -> AffineWeylGroup:
    return AffineWeylGroup(root_system(family, rank))


def test_a_repeated_element_breaks_the_scan_uniqueness(monkeypatch):
    """A walk that lists an element twice in one shell gives its sign type
    two shortest elements."""
    shells = AffineWeylGroup.shells

    def doubled(group, *args, **kwargs):
        for shell in shells(group, *args, **kwargs):
            yield shell + shell[-1:] if len(shell) > 1 else shell
    monkeypatch.setattr(AffineWeylGroup, "shells", doubled)
    with pytest.raises(CertificationError, match="two shortest elements"):
        certified_scan(_group())


def test_more_sign_types_than_the_count_breaks_the_scan(monkeypatch):
    """With the target count lowered below the 16 sign types of A2, the
    last shell of minima overshoots it."""
    group = _group()
    monkeypatch.setattr(group.system, "region_count", 14)
    with pytest.raises(CertificationError, match="found 16 sign types"):
        certified_scan(group)


ZETA = (1, 0, 1)  # an A2 sign type with minimum (1, 0, 1) and more members


def _scan_with_minima(scan: lowness.ScanResult, minima: dict) -> lowness.ScanResult:
    return dataclasses.replace(scan, minima=minima)


def _second_member(group: AffineWeylGroup, zeta: tuple[int, ...]):
    """The second element of sign type ``zeta`` in the walk's order."""
    members = (w for shell in group.shells() for w in shell
               if sign_of_shi(w.shi) == zeta)
    next(members)
    return next(members)


def _swapped_minimum(scan: lowness.ScanResult) -> lowness.ScanResult:
    """The scan with sign type ``ZETA`` given another of its elements as
    its minimum: its second member in walk order."""
    return _scan_with_minima(scan, {**scan.minima,
                                    ZETA: _second_member(scan.group, ZETA)})


def test_a_low_element_that_is_not_its_types_minimum_is_caught():
    group = _group()
    scan = _swapped_minimum(certified_scan(group))
    with pytest.raises(CertificationError,
                       match=r"low element \(1, 0, 1\) is not the certified minimum"):
        enumerate_low(group, certificate_scan=scan)


def test_a_low_element_of_a_type_missing_from_the_scan_is_caught():
    group = _group()
    scan = certified_scan(group)
    missing = _scan_with_minima(
        scan, {z: w for z, w in scan.minima.items() if z != ZETA})
    with pytest.raises(CertificationError,
                       match=r"low element \(1, 0, 1\) is not the certified minimum"):
        enumerate_low(group, certificate_scan=missing)


def test_the_member_index_rejects_a_swapped_minimum(monkeypatch):
    """With the descent test blinded, a table takes a swapped minimum;
    the member walk then meets the true minimum first and raises."""
    group = _group()
    monkeypatch.setattr(regions, "right_descent_within_sign_type", lambda group, w: None)
    table = enumerate_regions(group, scan=_swapped_minimum(certified_scan(group)))
    with pytest.raises(CertificationError,
                       match=r"sign type \(1, 0, 1\): the first member of the walk"):
        table.members


def test_the_member_index_rejects_a_ball_of_another_size():
    table = enumerate_regions(_group())
    short = dataclasses.replace(table, visited=table.visited + 1)
    with pytest.raises(CertificationError, match="saw 31 elements, the scan 32"):
        short.members


@pytest.mark.parametrize("module, name, fault, message", [
    (signtypes, "is_admissible", lambda system, zeta: False, "is not admissible"),
    (signtypes, "separation_mask", lambda system, small, zeta: 0, "separation mask"),
    (regions, "right_descent_within_sign_type", lambda group, w: 0,
     "right descent inside the sign type"),
])
def test_each_region_table_cross_check_raises(monkeypatch, module, name, fault, message):
    group = _group()
    scan = certified_scan(group)
    monkeypatch.setattr(module, name, fault)
    with pytest.raises(CertificationError, match=message):
        enumerate_regions(group, scan=scan)


def test_check_each_fails_a_check_on_a_certification_error():
    def probe(item):
        raise CertificationError("sign type (0,) has two shortest elements")
    report = Report(suite="main-theorem", family="A", rank=2)
    verify._check_each(report, "probe", [1], probe)
    check = report.checks[0]
    assert not check.passed
    assert check.counterexample == {
        "certification_error": "sign type (0,) has two shortest elements"}


_INJECTED = """
from itertools import islice

from shilow import (AffineWeylGroup, CertificationError, certified_scan, cli,
                    enumerate_low, enumerate_regions, lowness, regions, root_system,
                    sign_of_shi)

regions.right_descent_within_sign_type = lambda group, w: 0
group = AffineWeylGroup(root_system("A", 2))
scan = certified_scan(group)
zeta = (1, 0, 1)
second = [w for shell in islice(group.shells(), scan.stop_length + 1)
          for w in shell if sign_of_shi(w.shi) == zeta][1]
swapped = lowness.ScanResult(group=group, stop_length=scan.stop_length,
                             minima={**scan.minima, zeta: second},
                             visited=scan.visited)
for enumeration in (lambda: enumerate_low(group, certificate_scan=swapped),
                    lambda: enumerate_regions(group, scan=scan)):
    try:
        enumeration()
    except CertificationError as exc:
        print("CertificationError:", exc)
cli.certified_scan = lambda *args, **kwargs: swapped
print("exit", cli.main(["enumerate", "low", "--type", "A", "--rank", "2"]))
"""


def test_an_injected_fault_raises_under_python_o():
    """With a scan whose minimum of one sign type is another element, the
    low enumeration raises and ``enumerate low`` exits 4; with
    ``right_descent_within_sign_type`` answering s0 for every element,
    the region table raises.  Both hold under ``-O``, which strips
    asserts."""
    proc = _python_o(_INJECTED)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    assert "not the certified minimum of its sign type" in lines[0]
    assert "right descent inside the sign type" in lines[1]
    assert lines[2] == f"exit {cli.EXIT_CERTIFICATION}"
    assert proc.stderr == ("error: low element (1, 0, 1) is not the certified "
                           "minimum of its sign type\n")


def _python_o(script: str) -> subprocess.CompletedProcess:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC),
                                                       os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)


def test_the_cli_exits_4_on_a_certification_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise CertificationError("the scan found 17 sign types, not (h+1)^n = 16")
    monkeypatch.setattr(verify, "run_suite", broken)
    code = cli.main(["verify", "main-theorem", "--type", "A", "--rank", "2"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CERTIFICATION == 4
    assert not captured.out
    assert captured.err == "error: the scan found 17 sign types, not (h+1)^n = 16\n"


def test_a_non_dominant_ideal_region_exits_4_from_main_theorem(capsys, monkeypatch):
    """``verify_main_theorem`` pairs the ideals with their regions before
    its checks run; a failed pairing still exits 4 with a message."""
    monkeypatch.setattr(regions, "ideal_sign_type",
                        lambda system, ideal: (-1,) * system.nroots)
    code = cli.main(["verify", "main-theorem", "--type", "A", "--rank", "2"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_CERTIFICATION
    assert not captured.out
    assert captured.err == "error: the region of ideal () is not dominant\n"


def test_a_non_dominant_ideal_region_raises_under_python_o():
    proc = _python_o(
        "from shilow import cli, regions\n"
        "regions.ideal_sign_type = lambda system, ideal: (-1,) * system.nroots\n"
        "print('exit', cli.main(['enumerate', 'ideals', '--type', 'A', '--rank', '2']))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"exit {cli.EXIT_CERTIFICATION}\n"
    assert proc.stderr == "error: the region of ideal () is not dominant\n"


def test_the_region_layer_raises_named_errors(monkeypatch):
    group = _group()
    table = enumerate_regions(group)
    with pytest.raises(CertificationError, match="share a sign type"):
        dataclasses.replace(table, regions=table.regions + table.regions[:1])
    whole = group.system.poset_ideals()[-1]
    monkeypatch.setattr(group.system, "coxeter_number", 1)
    with pytest.raises(CertificationError, match="the sums reach level 2 > h"):
        regions.ideal_closed_form_inversions(group, whole)
    with pytest.raises(ValueError, match="needs a '\\+' at a simple root"):
        condition_star(group.system, (0, 0, 0), 0)
    monkeypatch.setattr(signtypes, "certified_scan",
                        lambda group: types.SimpleNamespace(minima={(0, 0, 0): None}))
    with pytest.raises(CertificationError, match="A2 table holds 1 sign types"):
        signtypes.rank2_admissible_table.__wrapped__("A2")


# Every module of the package but rootdata, whose asserts still await
# named errors.
ASSERT_FREE = sorted(path.stem for path in (SRC / "shilow").glob("*.py")
                     if path.stem != "rootdata")


@pytest.mark.parametrize("module", ASSERT_FREE)
def test_no_assert_statement_in_the_region_layer(module):
    """``python -O`` strips asserts, so these modules certify and report
    by explicit raises only."""
    path = SRC / "shilow" / f"{module}.py"
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"
