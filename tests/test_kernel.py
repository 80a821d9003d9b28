"""The Shi-vector kernel against the matrix-action oracle.

Property tests over random words on the desk types and B3 (including
the word <-> element round trip), plus the named error raised by a left
table that disagrees with the matrix action, which must survive
``python -O``.
"""
from __future__ import annotations

import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shilow import AffineWeylGroup, root_system

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
