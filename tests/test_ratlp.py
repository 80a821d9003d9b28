"""The integer cone solver and its two certificates.

Members are built as explicit nonnegative combinations and non-members
from a chosen separating vector, so every case has a known answer.  A
tampered certificate must raise ``CertificateError``, also under
``python -O``.  ``cone_members`` must give the per-target answers of
``in_cone`` while reusing the Farkas vectors it finds and settling sums
of known members without an LP.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shilow import CertificateError, ratlp
from shilow.ratlp import (_check_farkas, _check_member, cone_members, in_cone,
                          nonnegative_combination)

SRC = Path(__file__).resolve().parents[1] / "src"

lp_settings = settings(derandomize=True, max_examples=300, deadline=None,
                       database=None)


def _vectors(dim: int, min_size: int = 0):
    return st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
                    min_size=min_size, max_size=7)


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _assert_reconstructs(columns, target, answer) -> None:
    """The member answer, checked here without the solver's own check."""
    assert answer is not None
    numerators, d = answer
    assert d > 0 and len(numerators) == len(columns)
    assert all(x >= 0 for x in numerators)
    assert [sum(x * col[r] for x, col in zip(numerators, columns))
            for r in range(len(target))] == [d * t for t in target]


@st.composite
def members(draw):
    """Generators and a target that is a given nonnegative integer
    combination of them."""
    dim = draw(st.integers(1, 5))
    columns = draw(_vectors(dim, min_size=1))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(columns),
                            max_size=len(columns)))
    target = [sum(x * col[r] for x, col in zip(weights, columns)) for r in range(dim)]
    return columns, target


@st.composite
def non_members(draw):
    """Generators on the closed positive side of a chosen y and a target
    on its open negative side."""
    dim = draw(st.integers(1, 5))
    y = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
             .filter(any))
    columns = [col if _dot(y, col) >= 0 else [-c for c in col]
               for col in draw(_vectors(dim))]
    target = draw(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim))
    if _dot(y, target) > 0:
        target = [-t for t in target]
    if _dot(y, target) == 0:
        target = [t - c for t, c in zip(target, y)]
    return columns, target


@lp_settings
@given(members())
def test_members_come_back_with_a_combination(case):
    columns, target = case
    _assert_reconstructs(columns, target, nonnegative_combination(columns, target))


@lp_settings
@given(non_members())
def test_separated_targets_are_not_members(case):
    columns, target = case
    assert nonnegative_combination(columns, target) is None
    assert not in_cone(iter(columns), target)


@st.composite
def cone_windows(draw):
    """Generators and a list of targets in one dimension: random targets
    and nonnegative combinations of the generators, shuffled together."""
    dim = draw(st.integers(1, 5))
    columns = draw(_vectors(dim))
    targets = draw(st.lists(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim),
                            max_size=10))
    for weights in draw(st.lists(st.lists(st.integers(0, 2), min_size=len(columns),
                                          max_size=len(columns)), max_size=4)):
        targets.append([sum(x * col[r] for x, col in zip(weights, columns))
                        for r in range(dim)])
    return columns, draw(st.permutations(targets))


@st.composite
def ordered_windows(draw):
    """Generators on the positive side of a functional and targets sorted
    by it: nonnegative integer combinations, whose decompositions
    ``cone_members`` can follow, and random vectors."""
    dim = draw(st.integers(1, 4))
    columns = draw(st.lists(st.lists(st.integers(0, 2), min_size=dim, max_size=dim)
                            .filter(any), min_size=1, max_size=5))
    targets = draw(st.lists(st.lists(st.integers(-2, 4), min_size=dim, max_size=dim),
                            max_size=6))
    for weights in draw(st.lists(st.lists(st.integers(0, 2), min_size=len(columns),
                                          max_size=len(columns)), max_size=8)):
        targets.append([sum(x * col[r] for x, col in zip(weights, columns))
                        for r in range(dim)])
    return columns, sorted(targets, key=sum)


@lp_settings
@given(st.one_of(cone_windows(), ordered_windows()))
def test_cone_members_equal_in_cone_per_target(case):
    columns, targets = case
    assert cone_members(columns, targets) == [in_cone(columns, t) for t in targets]


def test_a_stored_farkas_vector_saves_the_next_lp(monkeypatch):
    solved = []
    real = ratlp.in_cone

    def counting(generators, target, separators=None):
        solved.append(target)
        return real(generators, target, separators)
    monkeypatch.setattr(ratlp, "in_cone", counting)
    targets = [[-1, 0], [-2, 0], [-1, -1], [1, 1]]
    assert cone_members([[1, 0], [0, 1]], targets) == [False, False, False, True]
    assert solved == [[-1, 0], [1, 1]]


def test_a_tampered_stored_farkas_vector_raises(monkeypatch):
    """A stored vector that pairs negatively with a generator is caught by
    the Farkas check when it is reused, not trusted for having passed
    once."""
    real = ratlp.in_cone

    def tampering(generators, target, separators=None):
        answer = real(generators, target, separators)
        if separators:
            separators[-1] = [-5, 1]
        return answer
    monkeypatch.setattr(ratlp, "in_cone", tampering)
    with pytest.raises(CertificateError, match="pairs negatively with the generator"):
        cone_members([[1, 0], [0, 1]], [[-1, 0], [1, 0]])


def test_a_sum_of_known_members_needs_no_lp(monkeypatch):
    """Each member target that is an earlier one plus a generator, or a
    generator itself, is settled by its decomposition; only the two
    non-members, which no one Farkas vector separates, need an LP."""
    solved = []
    real = ratlp.in_cone

    def counting(generators, target, separators=None):
        solved.append(target)
        return real(generators, target, separators)
    monkeypatch.setattr(ratlp, "in_cone", counting)
    targets = [[1, 0], [0, 1], [1, 1], [2, 1], [-1, 0], [2, -1]]
    assert cone_members([[1, 0], [0, 1]], targets) == [True] * 4 + [False] * 2
    assert solved == [[-1, 0], [2, -1]]


def test_a_fractional_member_is_found_by_the_lp(monkeypatch):
    """(1, 1) is half of each generator: no generator steps down to zero
    or to a known member, so the LP decides it, over denominator 2."""
    solved = []
    real = ratlp.in_cone

    def counting(generators, target, separators=None):
        solved.append(target)
        return real(generators, target, separators)
    monkeypatch.setattr(ratlp, "in_cone", counting)
    assert cone_members([[2, 0], [0, 2]], [[1, 1]]) == [True]
    assert solved == [[1, 1]]
    numerators, d = nonnegative_combination([[2, 0], [0, 2]], [1, 1])
    assert d == 2 * numerators[0] == 2 * numerators[1]


def test_a_corrupted_stored_combination_raises(monkeypatch):
    """A stored combination is not trusted for having passed once: the
    combination built on it passes ``_check_member`` before it is used."""
    step = ratlp._step

    def corrupting(columns, target, members):
        for key in members:
            members[key] = [5] * len(columns)
        return step(columns, target, members)
    monkeypatch.setattr(ratlp, "_step", corrupting)
    with pytest.raises(CertificateError, match="misses the target"):
        cone_members([[1, 0], [0, 1]], [[1, 0], [2, 0]])


def test_no_generators():
    assert nonnegative_combination([], [0, 0, 0]) == ([], 1)
    assert nonnegative_combination([], [0, 1, 0]) is None
    assert nonnegative_combination([], [0, -1, 0]) is None


def test_zero_target_is_the_empty_combination():
    columns = [[1, -2, 0], [0, 3, -1], [-1, 0, 0]]
    assert nonnegative_combination(columns, [0, 0, 0]) == ([0, 0, 0], 1)


@pytest.mark.parametrize("target, member", [
    ([-3, -4], True),
    ([-1, 1], False),
    ([0, -5], True),
    ([2, -1], False),
])
def test_negative_target_entries(target, member):
    """Rows with a negative target entry are flipped before the simplex
    starts, and flipped back in the Farkas vector."""
    columns = [[-1, 0], [0, -2]]
    answer = nonnegative_combination(columns, target)
    if member:
        _assert_reconstructs(columns, target, answer)
    else:
        assert answer is None


@pytest.mark.parametrize("target, member", [
    ([2, 3, 0], True),
    ([1, -1, 0], True),
    ([0, 0, 1], False),
    ([3, -2, -1], False),
    ([0, -1, 0], True),
])
def test_repeated_and_degenerate_columns(target, member):
    """Repeated, zero and opposite columns make ties in the ratio test;
    Bland's rule still ends the simplex."""
    columns = [[1, 0, 0], [1, 0, 0], [0, 0, 0], [-1, 0, 0], [0, 1, 0],
               [0, 1, 0], [2, 2, 0], [1, -1, 0], [1, -1, 0]]
    answer = nonnegative_combination(columns, target)
    if member:
        _assert_reconstructs(columns, target, answer)
    else:
        assert answer is None


@pytest.mark.parametrize("check, args", [
    (_check_member, ([[1, 0], [0, 1]], [2, 3], [2, 4], 1)),
    (_check_member, ([[1, 0], [0, 1]], [2, 3], [4, 6], 1)),
    (_check_member, ([[1, 0], [1, 1]], [0, 1], [-1, 1], 1)),
    (_check_member, ([[1, 0], [0, 1]], [2, 3], [2, 3], 0)),
    (_check_farkas, ([[1, 0], [0, 1]], [-1, 0], [1, -1])),
    (_check_farkas, ([[0, 1]], [-1, 0], [-1, 0])),
])
def test_tampered_certificates_raise(check, args):
    with pytest.raises(CertificateError):
        check(*args)


_TAMPERED = """
from shilow import ratlp

columns = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
{body}
"""

_TAMPERED_MEMBER = """
numerators, d = ratlp.nonnegative_combination(columns, [2, 2, 2])
numerators[0] += 1
try:
    ratlp._check_member(columns, [2, 2, 2], numerators, d)
except ratlp.CertificateError as exc:
    print("CertificateError:", exc)
"""

_TAMPERED_FARKAS = """
real = ratlp._check_farkas
ratlp._check_farkas = lambda cols, target, y: real(cols, target, [-v for v in y])
try:
    ratlp.nonnegative_combination(columns, [1, -1, 0])
except ratlp.CertificateError as exc:
    print("CertificateError:", exc)
"""


@pytest.mark.parametrize("body, message", [
    (_TAMPERED_MEMBER, "misses the target"),
    (_TAMPERED_FARKAS, "Farkas vector"),
])
def test_a_tampered_certificate_raises_under_python_o(body, message):
    """The certificate checks are explicit raises, so ``-O`` keeps them."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC),
                                                       os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-O", "-c", _TAMPERED.format(body=body)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("CertificateError:")
    assert message in proc.stdout
