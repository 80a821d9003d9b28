"""The canonical-parent walk ``AffineWeylGroup.shells``.

Each element is built once, from the left quotient that
``word_from_element`` strips first.  The shells must hold the same sets
as the plain walk that extends every element by every non-descent letter
and drops duplicates, the pruned walks must equal the full walk filtered
by the same predicate, and the kernel must apply one left table per
element built.  The walk yields bare Shi vectors; the tests make
elements of them where they compare with element sets.
"""
from __future__ import annotations

from itertools import islice

import pytest

from shilow import (AffineWeylGroup, GroupElement, certified_scan, elements,
                    enumerate_low, is_low, root_system)

TYPES = ("A2", "B2", "G2", "A3", "B3", "C3")


def _group(name: str) -> AffineWeylGroup:
    return AffineWeylGroup(root_system(name[0], int(name[1:])))


def reference_shells(group: AffineWeylGroup, bound: int) -> list[set]:
    """Shells 0..bound of the dedup walk: every element of the previous
    shell extended on the left by every letter that is not one of its
    left descents, duplicates dropped by the set."""
    shells = [{group.identity}]
    for _ in range(bound):
        shells.append({group.left_multiply(g, w) for w in shells[-1]
                       for g in group.letters if g not in group.left_descents(w)})
    return shells


@pytest.mark.parametrize("name", TYPES)
def test_shells_equal_the_dedup_walk(name):
    group = _group(name)
    shells = list(islice(group.shells(), 9))
    assert [{GroupElement(group, shi) for shi in shell} for shell in shells] \
        == reference_shells(group, 8)
    for shell in shells:
        assert len(shell) == len(set(shell))


def _filtered(group: AffineWeylGroup, keep, bound: int) -> list[set]:
    return [{shi for shi in shell if keep(shi)}
            for shell in islice(group.shells(), bound + 1)]


@pytest.mark.parametrize("name", TYPES)
def test_the_low_walk_is_the_full_walk_filtered(name):
    group = _group(name)
    keep = lambda w: is_low(group, w)  # noqa: E731
    pruned = [set(shell) for shell in group.shells(keep=keep)]
    full = _filtered(group, keep, len(pruned) + 1)
    assert full[:len(pruned)] == pruned
    assert full[len(pruned):] == [set(), set()]


@pytest.mark.parametrize("name", TYPES)
def test_the_finite_walk_is_the_full_walk_filtered(name):
    """The walk pruned to elements without left descent s0 reaches
    exactly the elements with no translation part."""
    group = _group(name)
    pruned = [set(shell) for shell in group.shells(
        keep=lambda shi: 0 not in group.left_descents(GroupElement(group, shi)))]
    full = _filtered(group, lambda shi: not any(GroupElement(group, shi).trans),
                     group.system.nroots + 1)
    assert full == pruned + [set()]
    assert sum(map(len, pruned)) == group.system.weyl_order


def _left_apply_calls(monkeypatch, group: AffineWeylGroup) -> list:
    """Record each left table applied to a vector: by the interpreted
    ``_left_apply``, by a compiled ``apply[g]``, or by an ``extend[g]``
    that returns a vector (one that returns ``None`` applies no table)."""
    calls = []
    interpreted = elements._left_apply

    def counted(table, shi):
        calls.append(None)
        return interpreted(table, shi)

    def counted_closure(closure):
        def run(shi):
            child = closure(shi)
            if child is not None:
                calls.append(None)
            return child
        return run
    monkeypatch.setattr(elements, "_left_apply", counted)
    for name in ("apply", "extend"):
        monkeypatch.setattr(group, name, tuple(map(counted_closure, getattr(group, name))))
    return calls


@pytest.mark.parametrize("name, calls_made", [("A3", 790), ("B3", 6125)])
def test_the_scan_applies_one_table_per_element_built(monkeypatch, name, calls_made):
    """Every visited element but the identity is built by exactly one left
    table, and no other table is applied."""
    group = _group(name)
    calls = _left_apply_calls(monkeypatch, group)
    scan = certified_scan(group)
    assert len(calls) == scan.visited - 1 == calls_made


def test_the_low_walk_applies_one_table_per_candidate(monkeypatch):
    """The B3 low walk builds 445 candidates for its 343 low elements, by
    one left table each."""
    group = _group("B3")
    calls = _left_apply_calls(monkeypatch, group)
    assert len(enumerate_low(group)) == 343
    assert len(calls) == 445


def _elements_built(monkeypatch) -> list:
    built = []
    init = GroupElement.__init__

    def counted(self, group, shi):
        built.append(shi)
        init(self, group, shi)
    monkeypatch.setattr(GroupElement, "__init__", counted)
    return built


def test_the_scan_makes_elements_of_the_minima_only(monkeypatch):
    """The B3 scan walks 6,126 bare vectors and makes an element of each
    of its 343 minima, and of nothing else."""
    group = _group("B3")
    built = _elements_built(monkeypatch)
    scan = certified_scan(group)
    assert scan.visited == 6126
    assert len(built) == len(scan.minima) == 343


def test_the_low_walk_makes_elements_of_the_low_elements_only(monkeypatch):
    """The B3 low walk tests 445 candidates as vectors and makes at most
    one element per low element.  The group's reflection tables are
    checked first: that check, run once on the first read of reflection
    data, builds its 2N reflections, which are not the walk's."""
    group = _group("B3")
    group.reflected_lengths
    built = _elements_built(monkeypatch)
    assert len(enumerate_low(group)) == 343
    assert len(built) <= 343
