"""The Shi-vector kernel against the matrix-action oracle.

Property tests over random words on the desk types and B3 (including
the word <-> element round trip), plus the named error raised by a left
table that disagrees with the matrix action, which must survive
``python -O``.  The closures compiled from the tables (``apply``,
``extend``, ``reflected_lengths``, and ``sign_type``) are compared with
the interpreted tables and ``sign_of_shi`` on balls walked without them
and on random integer vectors; a table entry that is not an integer is
refused before it is compiled.
"""
from __future__ import annotations

import os
import random
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shilow import (AffineRoot, AffineWeylGroup, certified_scan, elements, is_low,
                    root_system, sign_of_shi)
from shilow.elements import _left_apply

TYPES = ("A2", "B2", "G2", "A3", "B3")
SRC = Path(__file__).resolve().parents[1] / "src"


@cache
def _group(name: str) -> AffineWeylGroup:
    return AffineWeylGroup(root_system(name[0], int(name[1:])))


@st.composite
def typed_words(draw):
    """A type and a random word (not necessarily reduced) in its letters."""
    name = draw(st.sampled_from(TYPES))
    rank = int(name[1:])
    return name, tuple(draw(st.lists(st.integers(0, rank), max_size=14)))


def _by_matrices(group: AffineWeylGroup, word):
    """The product of the word's generators through the matrix action."""
    out = group.identity
    for g in word:
        out = group.matrix_multiply(out, group.generators[g])
    return out


kernel_settings = settings(derandomize=True, max_examples=150, deadline=None,
                           database=None)


@kernel_settings
@given(typed_words())
def test_word_product_matches_the_matrix_product(case):
    name, word = case
    group = _group(name)
    assert group.element_from_word(word).shi == _by_matrices(group, word).shi


@kernel_settings
@given(typed_words())
def test_right_descents_match_the_matrix_length_test(case):
    name, word = case
    group = _group(name)
    w = _by_matrices(group, word)
    by_length = frozenset(g for g in group.letters
                          if group.matrix_multiply(w, group.generators[g]).length
                          < w.length)
    assert group.right_descents(w) == by_length


@kernel_settings
@given(typed_words())
def test_reduced_word_round_trips_to_the_element(case):
    """``word_from_element`` gives a word of length ``w.length`` whose
    product is w again."""
    name, word = case
    group = _group(name)
    w = group.element_from_word(word)
    reduced = group.word_from_element(w)
    assert len(reduced) == w.length
    assert group.element_from_word(reduced) == w


@kernel_settings
@given(typed_words())
def test_derived_action_gives_back_the_element(case):
    name, word = case
    group = _group(name)
    w = group.element_from_word(word)
    assert group.from_matrix(w.mat, w.trans) == w


_BAD_TABLE = """
from shilow import AffineWeylGroup, KernelError, root_system

group = AffineWeylGroup(root_system("B", 2))
table = list(group.left_tables[{letter}])
j, s, o = table[{entry}]
table[{entry}] = {replacement}
try:
    group.check_left_table(group.generators[{letter}], table)
except KernelError as exc:
    print("KernelError:", exc)
"""


@pytest.mark.parametrize("letter, entry, replacement, message", [
    (1, 0, "(j, 2 * s, o)", "is not a root"),
    (2, 1, "((j + 1) % len(table), s, o)", "disagrees with the matrix action"),
    (0, 3, "(j, s, o + 1)", "offset"),
])
def test_a_bad_table_raises_under_python_o(letter, entry, replacement, message):
    """The table check is an explicit raise, so ``-O`` keeps it."""
    script = _BAD_TABLE.format(letter=letter, entry=entry, replacement=replacement)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC),
                                                       os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("KernelError:")
    assert message in proc.stdout


@pytest.mark.parametrize("name", TYPES)
def test_inverse_is_the_reversed_word(name):
    """The fraction-free inverse of the matrix action equals the element
    of the reversed word, on seeded random words."""
    group = _group(name)
    rng = random.Random(22)
    for _ in range(60):
        word = [rng.randrange(len(group.letters)) for _ in range(rng.randrange(15))]
        w = group.element_from_word(word)
        assert group.inverse(w) == group.element_from_word(word[::-1]), word


def _counted_checks(monkeypatch) -> list:
    """Record each ``check_left_table`` call."""
    calls = []
    check = AffineWeylGroup.check_left_table
    monkeypatch.setattr(AffineWeylGroup, "check_left_table",
                        lambda group, t, table: calls.append(t) or check(group, t, table))
    return calls


@pytest.mark.parametrize("name", ("A2", "B2", "G2"))
def test_reflection_tables_are_checked_on_first_use(monkeypatch, name):
    """Building and scanning a group checks its n+1 generator tables only;
    the first read of reflection data checks the 2N reflection tables at
    levels 0 and 1, and later reads check nothing."""
    calls = _counted_checks(monkeypatch)
    group = AffineWeylGroup(root_system(name[0], int(name[1:])))
    certified_scan(group)
    assert len(calls) == 3
    group.reflected_lengths
    assert len(calls) == 3 + 2 * group.system.nroots
    for word in ((0, 1, 2, 1, 0), (0,) + (1, 2) * 4):
        w = group.element_from_word(word)
        is_low(group, w.shi)
        group.basis_of_inversion_set(w)
    group.reflection_table(AffineRoot(group.system.positive_roots[0], -1))
    assert len(calls) == 3 + 2 * group.system.nroots


_BAD_DATUM = """
from shilow import AffineRoot, AffineWeylGroup, KernelError, is_low, root_system

reflection_data = AffineWeylGroup._reflection_data


def corrupted(data):
    pairs, base, slope = data
    return pairs, base, (slope[0] + 1,) + slope[1:]


def corrupt_highest(group, root):
    data = reflection_data(group, root)
    return corrupted(data) if root == group.system.highest_root else data


try:
    {use}
except KernelError as exc:
    print("KernelError:", exc)
"""

_CORRUPT_ROOT_2 = """group = AffineWeylGroup(root_system("B", 2))
    data = list(group.reflection_data)
    data[2] = corrupted(data[2])
    group.reflection_data = tuple(data)
    """


@pytest.mark.parametrize("use", [
    # s0's table is built from the highest root's reflection data.
    'AffineWeylGroup._reflection_data = corrupt_highest\n'
    '    AffineWeylGroup(root_system("B", 2))',
    _CORRUPT_ROOT_2 + "is_low(group, group.identity.shi)",
    _CORRUPT_ROOT_2 + "group.reflect_left(AffineRoot((1, 0), 0), group.identity)",
], ids=["generator-at-construction", "reflection-at-is_low", "reflection-at-reflect_left"])
def test_a_corrupted_reflection_datum_raises_before_use_under_python_o(use):
    """One slope off in the reflection data of a generator's root raises
    ``KernelError`` when the group is built; off in another root's, at the
    first ``is_low`` or ``reflect_left``, before the datum is read.  The
    checks are explicit raises, so ``-O`` keeps them."""
    script = _BAD_DATUM.format(use=use)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC),
                                                       os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("KernelError: left table of"), proc.stdout
    assert "offset" in proc.stdout


# (type, radius) of the balls the compiled closures are compared on.
BALLS = (("A2", 8), ("B2", 8), ("G2", 8), ("A3", 7), ("B3", 6), ("C3", 6),
         ("A4", 5), ("D4", 5))


def interpreted_ball(group: AffineWeylGroup, radius: int) -> list[tuple[int, ...]]:
    """The vectors of the ball, by the interpreted tables alone: every
    vector extended by every letter that is not a left descent."""
    shell, ball = {group.identity.shi}, [group.identity.shi]
    for _ in range(radius):
        shell = {_left_apply(group.left_tables[g], shi) for shi in shell
                 for g in group.letters if g not in group._descents(shi)}
        ball.extend(sorted(shell))
    return ball


def interpreted_extend(group: AffineWeylGroup, g: int, shi: tuple[int, ...]):
    """The walk's rule read off the table data: s_g * w when g is not a
    left descent of w and no earlier letter is one of s_g * w."""
    _, index, sign, table, earlier = group._letter_steps[g]
    if sign * shi[index] < 0 or any(s * shi[j] + o < 0 for j, s, o in earlier):
        return None
    return _left_apply(table, shi)


def interpreted_length(group: AffineWeylGroup, i: int, shi: tuple[int, ...],
                       shift: int) -> int:
    """The length of the vector of the reflection table of root i at
    ``shift`` applied to ``shi``."""
    pairs, base, slope = group.reflection_data[i]
    return sum(abs(s * shi[j] + o - shift * m) for (j, s), o, m in zip(pairs, base, slope))


def assert_closures_match(group: AffineWeylGroup, shi: tuple[int, ...]) -> None:
    assert group.sign_type(shi) == sign_of_shi(shi), shi
    for g in group.letters:
        assert group.apply[g](shi) == _left_apply(group.left_tables[g], shi), (g, shi)
        assert group.extend[g](shi) == interpreted_extend(group, g, shi), (g, shi)
    for i in range(group.system.nroots):
        for shift in range(-3, 4):
            assert group.reflected_lengths[i](shi, shift) \
                == interpreted_length(group, i, shi, shift), (i, shift, shi)


@pytest.mark.parametrize("name, radius", BALLS)
def test_compiled_closures_equal_the_tables_on_the_ball(name, radius):
    """Each closure equals the interpreted table on every vector of the
    ball, and the children ``extend`` gives are the ball's next shell,
    each built once."""
    group = AffineWeylGroup(root_system(name[0], int(name[1:])))
    ball = interpreted_ball(group, radius)
    for shi in ball:
        assert_closures_match(group, shi)
    children = [child for shi in ball if sum(map(abs, shi)) < radius
                for step in group.extend if (child := step(shi)) is not None]
    assert sorted(children) == sorted(shi for shi in ball if any(shi))


@st.composite
def typed_vectors(draw):
    """A type and a random integer vector, one entry per positive root."""
    group = _group(draw(st.sampled_from(TYPES + ("C3", "A4", "D4"))))
    size = group.system.nroots
    return group, tuple(draw(st.lists(st.integers(-6, 6), min_size=size, max_size=size)))


@kernel_settings
@given(typed_vectors())
def test_compiled_closures_equal_the_tables_on_any_vector(case):
    group, shi = case
    assert_closures_match(group, shi)


def test_constructing_a_group_compiles_nothing(monkeypatch):
    """The closures are compiled on first use: a group that only exists
    compiles nothing and builds no reflection or facet data; one walk
    compiles ``extend`` alone."""
    compiled = []
    compile_ = elements._compile
    monkeypatch.setattr(elements, "_compile",
                        lambda sources, name: compiled.append(name) or compile_(sources, name))
    group = AffineWeylGroup(root_system("B", 3))
    assert compiled == []
    assert not {"apply", "extend", "reflected_lengths", "sign_type", "reflection_data",
                "_checked_reflection_data", "facet_data"} & set(vars(group))
    assert "_leq" not in vars(group.system)
    next(group.shells())
    next(group.shells())
    assert compiled == ["letter steps"]


_NON_INT = """
from shilow import AffineWeylGroup, KernelError, root_system

group = AffineWeylGroup(root_system("A", 2))
table = list(group.left_tables[1])
j, s, o = table[0]
table[0] = {replacement}
tables = list(group.left_tables)
tables[1] = tuple(table)
group.left_tables = tuple(tables)
try:
    group.element_from_word((1,))
except KernelError as exc:
    print("KernelError:", exc)
"""


@pytest.mark.parametrize("replacement", ["(j, s, float(o))", "(j, s, str(o))",
                                         "(str(j), s, o)", "(j, True, o)"])
def test_a_non_int_table_entry_is_refused_before_compiling(replacement):
    """An entry that is not an integer index, sign and offset raises
    ``KernelError`` before any source is compiled, also under ``-O``."""
    script = _NON_INT.format(replacement=replacement)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC),
                                                       os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("KernelError: left table of s1: entry")
