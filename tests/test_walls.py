"""The wall-reading kernel paths against the plain derivations they replace.

``AffineWeylGroup.walls`` reads right descents, descent roots and the
descent inside a sign type off the Shi vector, and ``lowness.is_low``
reads lengths off the reflection data of the coefficients with
``|k| >= 2``.  The references below are the earlier, direct versions:
replay the reduced word for each right descent, take the right descents
as the left descents of the inverse's vector, and test every member of
the inversion set.  They must agree on every element of the first
shells of each type.
"""
from __future__ import annotations

from functools import cache
from itertools import islice

import pytest

from shilow import AffineWeylGroup, SmallRoots, is_low, root_system
from shilow.lowness import right_descent_within_sign_type, sign_of_shi

# (type, last shell): every element of length <= the bound is compared.
BALLS = (("A2", 9), ("B2", 9), ("G2", 9), ("A3", 9), ("B3", 9), ("C3", 9),
         ("A4", 9), ("D4", 9), ("F4", 7))


@cache
def _ball(name: str, bound: int):
    group = AffineWeylGroup(root_system(name[0], int(name[1:])))
    return group, [w for shell in islice(group.shells(), bound + 1) for w in shell]


def reference_right_descents(group: AffineWeylGroup, w) -> frozenset[int]:
    """The left descents of w^-1, whose vector is the letters of w's
    reduced word applied on the left of the identity in turn."""
    inverse = group._word_shi(group.word_from_element(w)[::-1], group.identity.shi)
    return group._descents(inverse)


def reference_descent_within_sign_type(group: AffineWeylGroup, w) -> int | None:
    """The least right descent g with w * s_g in w's sign type, by
    replaying w's reduced word on the left of each s_g."""
    word = group.word_from_element(w)
    zeta = sign_of_shi(w.shi)
    for g in sorted(reference_right_descents(group, w)):
        if sign_of_shi(group._word_shi(word, group.generators[g].shi)) == zeta:
            return g
    return None


def reference_is_low(group: AffineWeylGroup, small: SmallRoots, w) -> bool:
    """Every length-decreasing inversion, over the whole inversion set,
    is a small root; lengths from the reflection tables."""
    length = w.length
    return all(beta in small or group.reflect_left(beta, w).length != length - 1
               for beta in group.inversion_set(w))


@pytest.mark.parametrize("name, bound", BALLS, ids=[name for name, _ in BALLS])
def test_walls_paths_equal_the_references(name, bound):
    group, ball = _ball(name, bound)
    small = SmallRoots(group)
    for w in ball:
        assert group.right_descents(w) == reference_right_descents(group, w), w.shi
        assert right_descent_within_sign_type(group, w) \
            == reference_descent_within_sign_type(group, w), w.shi
        assert is_low(group, w) == reference_is_low(group, small, w), w.shi


@pytest.mark.parametrize("name, bound", (("A2", 8), ("G2", 8), ("B3", 6), ("A4", 5),
                                         ("D4", 5), ("F4", 4)))
def test_descent_roots_from_walls_equal_the_matrix_action(name, bound):
    group, ball = _ball(name, bound)
    for w in ball:
        assert group.right_descent_roots(w) == group.right_descent_roots_by_action(w), w.shi


def test_walls_name_the_images_of_the_simple_roots():
    """At a generator s_g the wall of letter g is the simple root itself,
    sent to its negative: side * alpha_i is the finite part of -alpha_g."""
    group = AffineWeylGroup(root_system("B", 3))
    for g, s_g in enumerate(group.generators):
        letter, i, side = group.walls(s_g)[g]
        finite = group.simple_affine_root(g).finite
        assert letter == g
        assert tuple(side * c for c in group.system.positive_roots[i]) \
            == tuple(-c for c in finite)
