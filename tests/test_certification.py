"""The enumerations' own cross-checks raise ``CertificationError``.

Each certifying check of ``region_walk``, ``certified_scan`` and
``enumerate_regions`` is an explicit raise, so an injected fault still
surfaces under ``python -O``; the CLI exits 4 on it and a suite check
fails on it.  The ``main-theorem`` suite's comparison of the walk with
the full-ball scan fails on a scan whose minima differ.
"""
from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from shilow import (AffineWeylGroup, CertificationError, GroupElement, certified_scan,
                    cli, condition_star, enumerate_low, enumerate_regions, lowness,
                    region_members, region_walk, regions, root_system, sign_of_shi,
                    signtypes, verify)
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
    return lowness.ScanResult(scan.group, scan.stop_length, minima, scan.visited)


def _second_member(group: AffineWeylGroup, zeta: tuple[int, ...]):
    """The second element of sign type ``zeta`` in the walk's order."""
    members = (shi for shell in group.shells() for shi in shell
               if sign_of_shi(shi) == zeta)
    next(members)
    return GroupElement(group, next(members))


def _swapped_minimum(scan: lowness.ScanResult) -> lowness.ScanResult:
    """The scan with sign type ``ZETA`` given another of its elements as
    its minimum: its second member in walk order."""
    return _scan_with_minima(scan, {**scan.minima,
                                    ZETA: _second_member(scan.group, ZETA)})


def _oracle_check(monkeypatch, oracle: lowness.ScanResult):
    """``low_equals_region_minima`` of A2 with ``oracle`` as the full-ball scan."""
    monkeypatch.setattr(verify, "certified_scan", lambda *args, **kwargs: oracle)
    report = verify.verify_main_theorem(verify.desk_context("A", 2))
    return {c.name: c for c in report.checks}["low_equals_region_minima"]


def test_a_low_element_that_is_not_its_types_minimum_is_caught(monkeypatch):
    """A full-ball scan whose minimum of one sign type is another member
    of it disagrees with the walk's low set in two elements."""
    check = _oracle_check(monkeypatch, _swapped_minimum(certified_scan(_group())))
    assert not check.passed
    assert check.detail == {"low": 16, "minima": 16, "symmetric_difference": 2,
                            "oracle": "full-ball scan", "compared": 31}


def test_a_low_element_of_a_type_missing_from_the_scan_is_caught(monkeypatch):
    scan = certified_scan(_group())
    missing = _scan_with_minima(
        scan, {z: w for z, w in scan.minima.items() if z != ZETA})
    check = _oracle_check(monkeypatch, missing)
    assert not check.passed
    assert check.detail["symmetric_difference"] == 1


def test_the_member_index_rejects_a_swapped_minimum():
    """The member walk reads the scan's minima, not a table, so a scan
    with a swapped minimum is caught without building one: the walk meets
    the true minimum first and raises."""
    with pytest.raises(CertificationError,
                       match=r"sign type \(1, 0, 1\): the first member of the walk"):
        region_members(_swapped_minimum(certified_scan(_group())))


def test_the_member_index_rejects_a_ball_of_another_size(monkeypatch):
    """The member walk must see the ball size of Bott's series."""
    scan = region_walk(_group())
    counts = scan.group.system.affine_length_counts
    monkeypatch.setattr(scan.group.system, "affine_length_counts",
                        lambda bound: [*counts(bound)[:-1], counts(bound)[-1] + 1])
    with pytest.raises(CertificationError, match="saw 31 elements, Bott's series 32"):
        region_members(scan)


def test_the_member_index_rejects_a_region_the_ball_never_meets():
    """A scan whose minima hold one sign type more than the ball's 16 is
    caught once every bucket has been matched to its minimum."""
    scan = region_walk(_group())
    extra = _scan_with_minima(scan, {**scan.minima, (2, 2, 2): scan.group.identity})
    with pytest.raises(CertificationError, match="the member walk met 16 of the 17 regions"):
        region_members(extra)


def test_the_member_walk_is_refused_over_the_budget():
    """A ball over the budget refuses the member walk before walking,
    naming it."""
    with pytest.raises(lowness.BudgetExceededError,
                       match=r"the member walk to length 4 would visit 31 elements"):
        region_members(region_walk(_group()), 30)


@pytest.mark.parametrize("module, name, fault, message", [
    (signtypes, "is_admissible", lambda system, zeta: False, "is not admissible"),
    (lowness.SmallRoots, "sigma_mask", lambda small, w: 0, "separation mask"),
    (regions, "right_descent_within_sign_type", lambda group, w: 0,
     "right descent inside the sign type"),
])
def test_each_region_table_cross_check_raises(monkeypatch, module, name, fault, message):
    group = _group()
    scan = certified_scan(group)
    monkeypatch.setattr(module, name, fault)
    with pytest.raises(CertificationError, match=message):
        enumerate_regions(scan)


def test_the_region_table_tests_each_sign_type_once(monkeypatch):
    """Building the A3 table tests each of its 125 scanned sign types for
    admissibility once; the separation mask is read through the codec."""
    group = _group("A", 3)
    scan = certified_scan(group)
    calls = []
    admissible = signtypes.is_admissible

    def counted(system, zeta):
        calls.append(zeta)
        return admissible(system, zeta)
    monkeypatch.setattr(signtypes, "is_admissible", counted)
    enumerate_regions(scan)
    assert len(calls) == 125


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
from shilow import (AffineWeylGroup, CertificationError, cli, enumerate_regions,
                    lowness, region_walk, regions, root_system)

regions.right_descent_within_sign_type = lambda group, w: 0
try:
    enumerate_regions(region_walk(AffineWeylGroup(root_system("A", 2))))
except CertificationError as exc:
    print("CertificationError:", exc)
real = lowness.is_low
lowness.is_low = lambda group, shi: real(group, shi) != (shi == (1, 0, 1))
print("exit", cli.main(["enumerate", "low", "--type", "A", "--rank", "2"]))
"""


def test_an_injected_fault_raises_under_python_o():
    """With ``right_descent_within_sign_type`` answering s0 for every
    element, the region table raises; with ``is_low`` wrong on one
    candidate, the walk raises and ``enumerate low`` exits 4 naming it.
    Both hold under ``-O``, which strips asserts."""
    proc = _python_o(_INJECTED)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert "right descent inside the sign type" in lines[0]
    assert lines[1] == f"exit {cli.EXIT_CERTIFICATION}"
    assert proc.stderr == ("error: candidate (1, 0, 1): its sign type is new, "
                           "but it is not low\n")


# Each fault is injected into the A2 walk before it runs.  The vector
# (1, 0, 1) is the low minimum of its sign type; doubling the last
# letter's extension lists s2, of vector (0, -1, 0), twice in shell 1;
# (1, 1, 2) is a low element of the greatest length, so no other low
# element extends it.
_WALK_FAULTS = {
    "is_low disagrees": (
        "real = lowness.is_low\n"
        "lowness.is_low = lambda group, shi: real(group, shi) != (shi == (1, 0, 1))\n",
        r"candidate \(1, 0, 1\): its sign type is new, but it is not low"),
    "two new vectors of one sign type in a shell": (
        "group.extend = group.extend + group.extend[-1:]\n",
        r"sign type \(0, -1, 0\) has two shortest elements in one shell: "
        r"\(0, -1, 0\) and \(0, -1, 0\)"),
    "a region dropped": (
        "group.extend = tuple((lambda step: lambda shi: None if step(shi) == (1, 1, 2) "
        "else step(shi))(step) for step in group.extend)\n",
        r"the region walk found 15 sign types, not \(h\+1\)\^n = 16"),
}


@pytest.mark.parametrize("fault", _WALK_FAULTS)
def test_a_walk_fault_raises_under_python_o(fault):
    """Each of the walk's three certificates raises ``CertificationError``
    under ``-O``: lowness against sign-type novelty, one new vector per
    sign type and shell, and the count (h+1)^n."""
    inject, message = _WALK_FAULTS[fault]
    proc = _python_o(
        "from shilow import AffineWeylGroup, CertificationError, lowness, root_system\n"
        "group = AffineWeylGroup(root_system('A', 2))\n"
        + inject +
        "try:\n"
        "    lowness.region_walk(group)\n"
        "except CertificationError as exc:\n"
        "    print(exc)\n")
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(message, proc.stdout.strip()), proc.stdout


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4"])
def test_the_walk_minima_equal_the_full_ball_minima(name):
    group = _group(name[0], int(name[1:]))
    walk, scan = region_walk(group), certified_scan(group)
    assert walk.minima == scan.minima
    assert walk.stop_length == scan.stop_length
    assert enumerate_low(group) == sorted(scan.minima.values(), key=GroupElement.sort_key)


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
    whole = group.system.poset_ideals()[-1]
    monkeypatch.setattr(group.system, "coxeter_number", 1)
    with pytest.raises(CertificationError, match="the sums reach level 2 > h"):
        regions.ideal_closed_form_inversions(group, whole)
    with pytest.raises(ValueError, match="needs a '\\+' at a simple root"):
        condition_star(group.system, (0, 0, 0), 0)


def test_the_rank2_table_search_raises_named_errors(monkeypatch):
    """A search that passes the region count, or that examines more vectors
    than the budget first, names the kind."""
    def tampered(family, rank):
        system = root_system(family, rank)
        system.region_count -= 1
        return system
    with monkeypatch.context() as patch:
        patch.setattr(signtypes, "root_system", tampered)
        with pytest.raises(CertificationError, match="A2 table holds 16 sign types, "
                                                     "not \\(h\\+1\\)\\^2 = 15"):
            signtypes.rank2_admissible_table.__wrapped__("A2")
    monkeypatch.setattr(signtypes, "DEFAULT_BUDGET", 40)
    with pytest.raises(CertificationError, match="G2 table search examined 108 vectors"):
        signtypes.rank2_admissible_table.__wrapped__("G2")


def test_the_sign_type_layer_does_not_read_the_kernel():
    """``signtypes`` builds its rank-2 tables from root data alone, so the
    region minima that ``main-theorem`` checks against them come from an
    independent route: it imports nothing from ``elements`` and never
    names ``certified_scan``."""
    tree = ast.parse((SRC / "shilow" / "signtypes.py").read_text())

    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            return [module] + [f"{module}.{alias.name}" for alias in node.names]
        return []
    kernel_imports = [node.lineno for node in ast.walk(tree)
                      if any("elements" in name.split(".") for name in imported(node))]
    scan_names = [node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "certified_scan"
                  or isinstance(node, ast.alias) and node.name == "certified_scan"
                  or isinstance(node, ast.Attribute) and node.attr == "certified_scan"]
    assert not kernel_imports, f"signtypes.py imports .elements at lines {kernel_imports}"
    assert not scan_names, f"signtypes.py names certified_scan at lines {scan_names}"


def test_the_member_walk_is_refused_in_one_place():
    """Exactly one call in the package passes "member walk" to
    ``ball_within_budget``, the one in ``regions.region_members``, and the
    region table is a plain dict: no module defines ``RegionTable``."""
    calls, classes = [], []
    for path in sorted((SRC / "shilow").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name == "RegionTable":
                classes.append(f"{path.name}:{node.lineno}")
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            arguments = [*node.args, *(keyword.value for keyword in node.keywords)]
            if name == "ball_within_budget" and any(
                    isinstance(arg, ast.Constant) and arg.value == "member walk"
                    for arg in arguments):
                calls.append(f"{path.name}:{node.lineno}")
    assert len(calls) == 1, f"member walk refused at {calls}"
    assert not classes, f"RegionTable defined at {classes}"


MODULES = sorted(path.stem for path in (SRC / "shilow").glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_statement_in_the_region_layer(module):
    """``python -O`` strips asserts, so these modules certify and report
    by explicit raises only."""
    path = SRC / "shilow" / f"{module}.py"
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


_COMPILERS = {"eval", "exec", "compile"}


@pytest.mark.parametrize("module", MODULES)
def test_code_is_compiled_only_by_the_kernel_helper(module):
    """``eval``, ``exec`` and ``compile`` appear only in
    ``elements._compile``, which compiles source written from checked
    table integers; no other module or function compiles code.  A
    regular expression's ``re.compile`` compiles no code."""
    path = SRC / "shilow" / f"{module}.py"
    tree = ast.parse(path.read_text())
    allowed = set()
    if module == "elements":
        (helper,) = [node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "_compile"]
        allowed = {id(node) for node in ast.walk(helper)}
    lines = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id in _COMPILERS
                 or isinstance(node, ast.Attribute) and node.attr in _COMPILERS
                 and not (isinstance(node.value, ast.Name) and node.value.id == "re"))
             and id(node) not in allowed]
    assert not lines, f"{path.name}: code compiled at lines {lines}"


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_the_environment(module):
    """Every setting comes from an argument or a CLI option, so no module
    reads ``os.environ`` or ``os.getenv``, by attribute or by import."""
    path = SRC / "shilow" / f"{module}.py"
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT
             and isinstance(node.value, ast.Name) and node.value.id == "os"
             or isinstance(node, ast.ImportFrom) and node.module == "os"
             and any(alias.name in _ENVIRONMENT for alias in node.names)]
    assert not lines, f"{path.name}: environment reads at lines {lines}"


def _import_lines(module: str, packages: set[str]) -> list[int]:
    """The lines of ``module`` that import one of ``packages``."""
    path = SRC / "shilow" / f"{module}.py"
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] in packages for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] in packages]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_fractions_or_decimal(module):
    """Root data and the matrix action are integers over one denominator,
    so no module imports ``fractions`` or ``decimal``, whose import alone
    adds milliseconds to every process."""
    lines = _import_lines(module, {"fractions", "decimal"})
    assert not lines, f"{module}.py: imports of fractions or decimal at lines {lines}"


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_dataclasses(module):
    """The records are plain classes: ``dataclasses`` would load
    ``inspect`` and its chain and generate each class's methods with
    ``exec`` at import, in every process."""
    lines = _import_lines(module, {"dataclasses"})
    assert not lines, f"{module}.py: imports of dataclasses at lines {lines}"


def _calls_of(tree: ast.AST, name: str) -> list[ast.Call]:
    """The calls of ``name`` in ``tree``, bare or as a module attribute."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Name) and node.func.id == name
                 or isinstance(node.func, ast.Attribute) and node.func.attr == name)]


@pytest.mark.parametrize("module", MODULES)
def test_only_the_group_builds_the_small_root_codec(module):
    """Each group owns one small-root codec, ``AffineWeylGroup.small``:
    ``SmallRoots`` is constructed there once, and nowhere else, so every
    layer reads the same instance."""
    path = SRC / "shilow" / f"{module}.py"
    tree = ast.parse(path.read_text())
    allowed = set()
    if module == "elements":
        (group,) = [node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == "AffineWeylGroup"]
        (owner,) = [node for node in group.body
                    if isinstance(node, ast.FunctionDef) and node.name == "small"]
        allowed = {id(node) for node in _calls_of(owner, "SmallRoots")}
        assert len(allowed) == 1, "AffineWeylGroup.small builds one SmallRoots"
    lines = [node.lineno for node in _calls_of(tree, "SmallRoots")
             if id(node) not in allowed]
    assert not lines, f"{path.name}: SmallRoots constructed at lines {lines}"


@pytest.mark.parametrize("module", MODULES)
def test_no_function_takes_a_small_root_codec(module):
    """A codec is read from its group, never passed next to it: no
    function or method has a parameter named ``small``."""
    path = SRC / "shilow" / f"{module}.py"
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             and any(arg.arg == "small" for arg in (*node.args.posonlyargs,
                                                     *node.args.args,
                                                     *node.args.kwonlyargs))]
    assert not lines, f"{path.name}: parameters named small at lines {lines}"
