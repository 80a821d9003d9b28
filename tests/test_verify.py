"""Verification suites run clean on every desk-scale type."""
from __future__ import annotations

import dataclasses
import json

import pytest
from conftest import suite_report

from shilow import (AffineWeylGroup, BudgetExceededError, Report, SmallRoots,
                    lowness, ratlp, regions, run_suite, signtypes, verify)
from shilow.elements import word_text


@pytest.mark.parametrize("suite", verify.SUITES)
def test_suite_passes(desk, suite):
    family = desk.system.cartan_type.family
    report = suite_report(suite, family, desk.system.rank)
    assert report.passed, report.to_text()
    assert report.suite == suite
    assert all(check.passed for check in report.checks)


def test_tables_suite_covers_rank4_pair():
    report = suite_report("tables", "A", 4)
    assert report.passed, report.to_text()
    names = {check.name for check in report.checks}
    assert "rank4_pair_admissible" in names
    assert "rank4_pair_inadmissible" in names


def test_budget_applies_after_a_default_context_is_cached(a2):
    """The context cache is keyed by budget, so a small budget still fails
    after the default-budget context of the same type was built."""
    assert len(a2.table) == 16
    with pytest.raises(BudgetExceededError):
        run_suite("descent-walls", "A", 2, budget=10)


def test_ball_walk_is_held_to_the_budget():
    with pytest.raises(BudgetExceededError):
        run_suite("recurrences", "A", 2, budget=10)


def test_tables_suite_builds_no_scan_off_the_catalog_types():
    run_suite("tables", "B", 3)
    assert "scan" not in vars(verify.desk_context("B", 3))


def test_each_ideal_check_names_its_own_failing_ideal(a2, monkeypatch):
    """A broken closed form for one ideal and broken descent roots for a
    later ideal's minimum are each reported against their own ideal."""
    pairs = regions.dominant_pairs(a2.system, a2.table)
    x = next(ideal for ideal, _ in pairs if ideal.ideal)
    y, y_region = pairs[-1]
    assert x is not y
    closed_form = regions.ideal_closed_form_inversions
    monkeypatch.setattr(regions, "ideal_closed_form_inversions",
                        lambda group, ideal: frozenset() if ideal.ideal == x.ideal
                        else closed_form(group, ideal))
    descent_roots = AffineWeylGroup.right_descent_roots
    monkeypatch.setattr(AffineWeylGroup, "right_descent_roots",
                        lambda group, w: frozenset() if w == y_region.minimal
                        else descent_roots(group, w))
    checks = {check.name: check for check in run_suite("main-theorem", "A", 2).checks}

    def named(ideal):
        return {"ideal": [a2.system.root_name(p) for p in ideal.ideal]}
    assert checks["dominant_minima_low_and_dominant"].passed
    assert checks["ideal_closed_form_inversions"].counterexample == named(x)
    assert checks["ideal_descents_are_antichain"].counterexample == named(y)
    assert checks["ideal_cone_oracle"].passed
    assert checks["ideal_cone_oracle"].counterexample is None


def test_automaton_suite_catches_a_redirected_transition(a2, monkeypatch):
    """Sending s0 from the start state to where s1 goes makes the machine
    accept the non-reduced word s0 s0, which the word walk reports."""
    machine = a2.machine
    rows = [list(row) for row in machine.transitions]
    rows[0][0] = rows[0][1]
    broken = dataclasses.replace(machine, transitions=tuple(map(tuple, rows)))
    monkeypatch.setitem(vars(a2), "machine", broken)
    check = {c.name: c for c in run_suite("automaton", "A", 2).checks}[
        "reduced_word_verdicts_match_length_oracle"]
    assert not check.passed
    assert check.counterexample == {"prefix": word_text((0,)), "letter": 0}


def _corrupt_first_offset(monkeypatch, group: AffineWeylGroup, letter: int) -> None:
    """Add one to the first offset of the letter's left table, both in
    ``left_tables`` and in the per-letter steps that the shell walk and
    the word reader read."""
    table = list(group.left_tables[letter])
    j, s, o = table[0]
    table[0] = (j, s, o + 1)
    tables = list(group.left_tables)
    tables[letter] = tuple(table)
    monkeypatch.setattr(group, "left_tables", tuple(tables))
    steps = list(group._letter_steps)
    steps[letter] = steps[letter][:3] + (tuple(table),) + steps[letter][4:]
    monkeypatch.setattr(group, "_letter_steps", tuple(steps))


def test_recurrence_check_catches_a_corrupted_left_table(monkeypatch):
    """One wrong offset in the left table of s0 gives shells whose vectors
    disagree with the matrix action; the recurrence check computes t*w
    through the matrix action and so reports it."""
    monkeypatch.setattr(verify, "_CONTEXTS", {})
    _corrupt_first_offset(monkeypatch, verify.desk_context("A", 2).group, 0)
    check = {c.name: c for c in run_suite("recurrences", "A", 2).checks}[
        "coefficient_recurrence_simple"]
    assert not check.passed
    assert check.counterexample is not None


def test_recurrence_suite_survives_a_corrupted_finite_table(monkeypatch):
    """One wrong offset in the left table of s1 breaks the finite walk;
    the suite still reports, and the finite-subgroup check names the
    kernel fault as its counterexample."""
    monkeypatch.setattr(verify, "_CONTEXTS", {})
    _corrupt_first_offset(monkeypatch, verify.desk_context("A", 2).group, 1)
    check = {c.name: c for c in run_suite("recurrences", "A", 2).checks}[
        "finite_subgroup_coefficients"]
    assert not check.passed
    assert "finite walk" in check.counterexample["kernel_error"]


def test_lowness_oracle_fails_on_a_swapped_codec(monkeypatch):
    """A codec that reads the coefficient signs the wrong way round gives
    small inversions outside N(w); the cone oracle raises ``KernelError``
    (also under ``-O``), and the agreement check reports it."""
    monkeypatch.setattr(verify, "_CONTEXTS", {})
    mask_from_shi = SmallRoots.mask_from_shi
    monkeypatch.setattr(SmallRoots, "mask_from_shi",
                        lambda self, shi: mask_from_shi(self, tuple(-k for k in shi)))
    check = {c.name: c for c in run_suite("recurrences", "A", 2).checks}[
        "lowness_oracle_agreement"]
    assert not check.passed
    assert "not all inversions" in check.counterexample["kernel_error"]


def test_cone_oracle_fails_on_a_tampered_certificate(monkeypatch):
    """A Farkas vector turned the wrong way round fails its integer check,
    and the ideal cone oracle reports the ``CertificateError``."""
    monkeypatch.setattr(verify, "_CONTEXTS", {})
    check_farkas = ratlp._check_farkas
    monkeypatch.setattr(ratlp, "_check_farkas", lambda columns, target, y:
                        check_farkas(columns, target, [-v for v in y]))
    check = {c.name: c for c in run_suite("main-theorem", "A", 2).checks}[
        "ideal_cone_oracle"]
    assert not check.passed
    assert "Farkas vector" in check.counterexample["certificate_error"]


def test_automaton_suite_walks_the_ball_once(monkeypatch):
    """Word counts come from the machine and element counts from the
    context's shells, so the suite walks the ball once.  A walk counts
    when it takes its first step; the certified scan behind the low set
    walks on its own, before the count starts."""
    shells = AffineWeylGroup.shells
    walks = []

    def counted(group, *args, **kwargs):
        def walk():
            walks.append(group)
            yield from shells(group, *args, **kwargs)
        return walk()
    monkeypatch.setattr(AffineWeylGroup, "shells", counted)
    monkeypatch.setattr(verify, "_CONTEXTS", {})
    verify.desk_context("A", 2).low
    walks.clear()
    assert run_suite("automaton", "A", 2).passed
    assert len(walks) == 1


def test_descent_walls_suite_reads_the_recorded_walls(monkeypatch):
    """The regions carry their descent walls, so only the two checks that
    compare them with the sign-type route call ``descent_mask``: at most
    two calls per region, on a context built inside the run."""
    calls = []
    route = signtypes.descent_mask

    def counted(*args):
        calls.append(args)
        return route(*args)
    monkeypatch.setattr(signtypes, "descent_mask", counted)
    monkeypatch.setattr(verify, "_CONTEXTS", {})
    assert run_suite("descent-walls", "A", 3).passed
    assert len(calls) <= 2 * len(verify.desk_context("A", 3).table)


@pytest.mark.parametrize("suite", ["main-theorem", "descent-walls"])
def test_a_passing_suite_reads_no_reduced_word(monkeypatch, suite):
    """Descents, descent roots and minimality are read off the Shi vector,
    so a passing run on a context built inside it reads no reduced word."""
    calls = []
    word = AffineWeylGroup.word_from_element

    def counted(self, w):
        calls.append(w.shi)
        return word(self, w)
    monkeypatch.setattr(AffineWeylGroup, "word_from_element", counted)
    monkeypatch.setattr(verify, "_CONTEXTS", {})
    assert run_suite(suite, "A", 3).passed
    assert calls == []


def test_a_failed_scan_is_raised_again_without_a_rerun(monkeypatch):
    """A context keeps its scan's error: a second suite that needs the
    scan raises the same error without running the scan again."""
    calls = []
    scan = verify.certified_scan

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)
    monkeypatch.setattr(verify, "certified_scan", counted)
    monkeypatch.setattr(verify, "_CONTEXTS", {})
    with pytest.raises(BudgetExceededError) as first:
        run_suite("main-theorem", "A", 3, budget=100)
    with pytest.raises(BudgetExceededError) as second:
        run_suite("descent-walls", "A", 3, budget=100)
    assert second.value is first.value
    assert len(calls) == 1


def test_main_theorem_tests_descents_once_per_region(monkeypatch):
    """Only the region table looks for a right descent inside a sign type;
    the low set is checked against the scan's minima by lookup."""
    calls = []
    route = lowness.right_descent_within_sign_type

    def counted(*args):
        calls.append(args)
        return route(*args)
    for module in (lowness, regions, verify):
        monkeypatch.setattr(module, "right_descent_within_sign_type", counted)
    monkeypatch.setattr(verify, "_CONTEXTS", {})
    assert run_suite("main-theorem", "A", 3).passed
    assert len(calls) == 125


def test_facet_test_disagreement_names_both_routes(monkeypatch):
    """When the facet test and the matrix action disagree on the right
    descent roots, the counterexample lists each route under its name."""
    monkeypatch.setattr(verify, "_CONTEXTS", {})
    monkeypatch.setattr(AffineWeylGroup, "right_descent_roots_by_action",
                        lambda self, w: frozenset())
    check = {c.name: c for c in run_suite("recurrences", "A", 2).checks}[
        "right_descent_roots_left_transition"]
    assert not check.passed
    failure = check.counterexample
    assert failure["matrix_action"] == []
    assert failure["facet_test"]
    assert "walls" not in failure


MEMBER_CHECKS = ("wall_crossing_sign_transform", "minimal_coefficient_magnitudes",
                 "minimal_inversions_contained_in_samples",
                 "minimality_iff_descents_in_walls")


def test_member_checks_say_what_ball_they_read():
    """The checks that read the member index report its size: the A2 ball
    to length 4 holds 31 elements."""
    checks = {c.name: c for c in suite_report("descent-walls", "A", 2).checks}
    for name in MEMBER_CHECKS:
        assert checks[name].detail == {"members": 31, "stop_length": 4}, name


def test_member_checks_fail_on_a_broken_member_walk(monkeypatch):
    """A member walk that disagrees with the scan fails the four checks
    that read it, each with the certification error, and no other."""
    monkeypatch.setattr(verify, "_CONTEXTS", {})
    verify.desk_context("A", 2).table
    shells = AffineWeylGroup.shells
    monkeypatch.setattr(AffineWeylGroup, "shells", lambda group, *args, **kwargs:
                        ([w for w in shell if w.length != 3]
                         for shell in shells(group, *args, **kwargs)))
    report = run_suite("descent-walls", "A", 2)
    assert {c.name for c in report.failures()} == set(MEMBER_CHECKS)
    for check in report.failures():
        assert "the scan 31" in check.counterexample["certification_error"]


def test_main_theorem_builds_no_member_index(monkeypatch):
    monkeypatch.setattr(verify, "_CONTEXTS", {})
    assert run_suite("main-theorem", "A", 3).passed
    assert "members" not in vars(verify.desk_context("A", 3).table)


def test_b3_main_theorem_cone_tests_need_71_lps(monkeypatch):
    """The dominant-ideal cone oracle settles most window roots by a
    stored Farkas vector or by a decomposition into a known member plus a
    generator; 71 of them still need an LP, against 239 with Farkas
    vectors alone."""
    calls = []
    real = ratlp.in_cone

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(ratlp, "in_cone", counted)
    monkeypatch.setattr(verify, "_CONTEXTS", {})
    assert run_suite("main-theorem", "B", 3).passed
    assert len(calls) == 71


def test_check_over_no_items_fails():
    report = Report(suite="demo", family="A", rank=2)
    verify._check_each(report, "empty", [], lambda item: None)
    assert not report.passed
    assert report.checks[0].counterexample == {"examined": 0}


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("everything", "A", 2)


def test_report_serialization_round_trip(a2):
    report = suite_report("main-theorem", "A", 2)
    data = json.loads(report.to_json())
    assert data["suite"] == "main-theorem"
    assert data["type"] == "A"
    assert data["rank"] == 2
    assert len(data["checks"]) == len(report.checks)
    for check in data["checks"]:
        assert check["status"] in {"pass", "fail"}
    text = report.to_text()
    assert "result: PASS" in text


def test_failing_report_shape():
    report = Report(suite="demo", family="A", rank=2)
    report.add("good", True)
    report.add("bad", False, counterexample={"word": [1]}, detail="why")
    assert not report.passed
    assert [c.name for c in report.failures()] == ["bad"]
    data = json.loads(report.to_json())
    bad = [c for c in data["checks"] if c["status"] == "fail"][0]
    assert bad["counterexample"] == {"word": [1]}
    assert "bad" in report.to_text()
