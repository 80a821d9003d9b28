"""Shared fixtures: one lazily built exact context per desk-scale type,
and one default-argument report per suite and type, read from it."""
from __future__ import annotations

from functools import cache

import pytest

from shilow import verify


@cache
def context(family: str, rank: int) -> verify.DeskContext:
    """The default-budget context of one type, made once per process and
    shared by the fixtures and ``suite_report``; tests that patch a
    context make their own."""
    return verify.desk_context(family, rank)


@cache
def suite_report(suite: str, family: str, rank: int):
    """One suite with default settings on the shared context, run once per
    process.  Tests that inject faults run their suites themselves."""
    return verify.SUITES[suite](context(family, rank))


@pytest.fixture(scope="session", params=verify.DESK_TYPES,
                ids=lambda param: f"{param[0]}{param[1]}")
def desk(request):
    """Full exact context (group, scan, low set, regions, automaton)."""
    return context(*request.param)


@pytest.fixture(scope="session")
def a2():
    return context("A", 2)


@pytest.fixture(scope="session")
def b2():
    return context("B", 2)


@pytest.fixture(scope="session")
def g2():
    return context("G", 2)


@pytest.fixture(scope="session")
def a3():
    return context("A", 3)
