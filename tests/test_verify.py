"""Verification suites run clean on every desk-scale type."""
from __future__ import annotations

import json

import pytest

from shilow import BudgetExceededError, Report, run_suite, verify


@pytest.mark.parametrize("suite", verify.SUITES)
def test_suite_passes(desk, suite):
    family = desk.system.cartan_type.family
    report = run_suite(suite, family, desk.system.rank)
    assert report.passed, report.to_text()
    assert report.suite == suite
    assert all(check.passed for check in report.checks)


def test_tables_suite_covers_rank4_pair():
    report = run_suite("tables", "A", 4)
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


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("everything", "A", 2)


def test_report_serialization_round_trip(a2):
    report = run_suite("main-theorem", "A", 2)
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
