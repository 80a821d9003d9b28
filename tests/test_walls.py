"""The facet test on the Shi vector against references that replay words.

``AffineWeylGroup.is_facet`` reads the right descent roots and the
descent inside a sign type off the Shi vector alone, and
``lowness.is_low`` reads lengths off the reflection data of the
coefficients with ``|k| >= 2``.  The references below are direct: the
right descents as the left descents of the inverse's vector
(``right_descents``), each w * s_g by replaying w's reduced word on the
left of s_g, each root -w(alpha_g) through the matrix action, and every
member of the inversion set tested.  They must agree on every element of
the first shells of each type, and on every low element of D4.
"""
from __future__ import annotations

from functools import cache
from itertools import islice

import pytest

from shilow import AffineRoot, AffineWeylGroup, SmallRoots, enumerate_low, is_low, root_system
from shilow.lowness import right_descent_within_sign_type, sign_of_shi

# (type, last shell): every element of length <= the bound is compared.
BALLS = (("A2", 9), ("B2", 9), ("G2", 9), ("A3", 9), ("B3", 9), ("C3", 9),
         ("A4", 9), ("D4", 9), ("F4", 7))


@cache
def _elements(name: str, bound: int | str):
    """The group and its ball of radius ``bound``, or its low elements
    when ``bound`` is "low"."""
    group = AffineWeylGroup(root_system(name[0], int(name[1:])))
    if bound == "low":
        return group, enumerate_low(group)
    return group, [w for shell in islice(group.shells(), bound + 1) for w in shell]


def replayed_right_descents(group: AffineWeylGroup, w) -> list[tuple[int, tuple[int, ...]]]:
    """(coordinate changed, vector of w * s_g) for each right descent g,
    w * s_g by replaying w's reduced word on the left of s_g; each
    changes exactly one coordinate, by one step towards zero."""
    word = group.word_from_element(w)
    out = []
    for g in sorted(group.right_descents(w)):
        shi = group._word_shi(word, group.generators[g].shi)
        (i,) = [i for i, (a, b) in enumerate(zip(w.shi, shi)) if a != b]
        assert abs(shi[i]) == abs(w.shi[i]) - 1, (w.shi, g)
        out.append((i, shi))
    return out


def reference_descent_roots(group: AffineWeylGroup, w) -> frozenset[AffineRoot]:
    """The root of each replayed right descent, by the coordinate i it
    changes: (-alpha_i, k) when k >= 1, (alpha_i, -k-1) when k <= -1."""
    roots = group.system.positive_roots
    return frozenset(AffineRoot(group.negative_roots[i], w.shi[i]) if w.shi[i] > 0
                     else AffineRoot(roots[i], -w.shi[i] - 1)
                     for i, _ in replayed_right_descents(group, w))


def reference_descent_within_sign_type(group: AffineWeylGroup, w) -> int | None:
    """The least coordinate changed by a right descent g with w * s_g in
    w's sign type, by replaying w's reduced word."""
    zeta = sign_of_shi(w.shi)
    return min((i for i, shi in replayed_right_descents(group, w)
                if sign_of_shi(shi) == zeta), default=None)


def reference_is_low(group: AffineWeylGroup, small: SmallRoots, w) -> bool:
    """Every length-decreasing inversion, over the whole inversion set,
    is a small root; lengths from the reflection tables."""
    length = w.length
    return all(beta in small or group.reflect_left(beta, w).length != length - 1
               for beta in group.inversion_set(w))


@pytest.mark.parametrize("name, bound", BALLS, ids=[name for name, _ in BALLS])
def test_walls_paths_equal_the_references(name, bound):
    group, ball = _elements(name, bound)
    small = SmallRoots(group)
    for w in ball:
        assert group.right_descent_roots(w) == reference_descent_roots(group, w), w.shi
        assert right_descent_within_sign_type(group, w) \
            == reference_descent_within_sign_type(group, w), w.shi
        assert is_low(group, w) == reference_is_low(group, small, w), w.shi


@pytest.mark.parametrize("name, bound", (("A2", 8), ("G2", 8), ("B3", 6), ("A4", 5),
                                         ("D4", 5), ("F4", 4), ("C3", 8), ("B4", 6),
                                         ("D5", 4), ("E6", 4), ("D4", "low")))
def test_descent_roots_from_walls_equal_the_matrix_action(name, bound):
    group, elements = _elements(name, bound)
    for w in elements:
        assert group.right_descent_roots(w) == group.right_descent_roots_by_action(w), w.shi
