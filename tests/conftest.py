"""Shared fixtures: one lazily built exact context per desk-scale type,
and one default-argument report per suite and type."""
from __future__ import annotations

from functools import cache

import pytest

from shilow import verify


@cache
def suite_report(suite: str, family: str, rank: int):
    """``verify.run_suite`` with default arguments, run once per process.
    Tests that inject faults call ``verify.run_suite`` themselves."""
    return verify.run_suite(suite, family, rank)


@pytest.fixture(scope="session", params=verify.DESK_TYPES,
                ids=lambda param: f"{param[0]}{param[1]}")
def desk(request):
    """Full exact context (group, scan, low set, regions, automaton)."""
    family, rank = request.param
    return verify.desk_context(family, rank)


@pytest.fixture(scope="session")
def a2():
    return verify.desk_context("A", 2)


@pytest.fixture(scope="session")
def b2():
    return verify.desk_context("B", 2)


@pytest.fixture(scope="session")
def g2():
    return verify.desk_context("G", 2)


@pytest.fixture(scope="session")
def a3():
    return verify.desk_context("A", 3)
