"""Small roots, certified scans, and the low-element enumeration."""
from __future__ import annotations

import json
from itertools import islice
from pathlib import Path

import pytest

from shilow import (AffineRoot, AffineWeylGroup, BudgetExceededError,
                    SmallRoots, certified_scan, enumerate_low, is_low,
                    is_low_by_cone, root_system, sign_of_shi)

# (visited, stop length) of each certified scan: the ball it reads and
# the length of the deepest minimal element.  The benchmark's traced run
# checks the same figures, recorded in perfbench/expected.json.
_SCAN_BALLS = {("A", 2): (31, 4), ("B", 2): (76, 7), ("G", 2): (328, 16),
               ("A", 3): (791, 10), ("B", 3): (6126, 22)}
_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def test_small_root_inventory(desk):
    small = desk.small
    system = desk.system
    assert small.count == system.nroots
    assert len(small.roots) == 2 * system.nroots
    for i, root in enumerate(system.positive_roots):
        assert small.roots[i] == AffineRoot(root, 0)
        assert small.roots[small.count + i] == AffineRoot(
            tuple(-c for c in root), 1)
    for beta in small.roots:
        assert beta in small
        assert small.roots[small.index[beta]] == beta
    assert AffineRoot(system.positive_roots[0], 2) not in small


def test_mask_round_trip(desk):
    small = desk.small
    for mask in (0, 1, (1 << small.count) | 1, (1 << 2 * small.count) - 1):
        roots = small.set_from_mask(mask)
        assert small.mask_from_roots(roots) == mask


def test_sigma_of_identity_is_empty(desk):
    group, small = desk.group, desk.small
    assert small.sigma(group.identity) == frozenset()
    assert small.sigma_mask(group.identity) == 0


def test_sigma_is_small_part_of_inversions(desk):
    group, small = desk.group, desk.small
    for w in desk.ball(4):
        expected = frozenset(b for b in group.inversion_set(w) if b in small)
        assert small.sigma(w) == expected


def test_sign_of_shi():
    assert sign_of_shi((0, 3, -2)) == (0, 1, -1)
    assert sign_of_shi(()) == ()


def test_certified_scan_counts(desk):
    scan = desk.scan
    system = desk.system
    key = (system.cartan_type.family, system.rank)
    assert len(scan.minima) == system.region_count
    assert scan.stop_length == _SCAN_BALLS[key][1]
    assert scan.visited >= system.region_count
    # minima are keyed by their own sign vectors
    for zeta, w in scan.minima.items():
        assert sign_of_shi(w.shi) == zeta
    # the member index's minimum magnitudes are componentwise lower
    # bounds of its samples
    for zeta, members in desk.table.members.items():
        for w in members.samples:
            assert sign_of_shi(w.shi) == zeta
            assert all(m <= abs(k)
                       for m, k in zip(members.min_abs, w.shi))


@pytest.mark.parametrize("family, rank", _SCAN_BALLS)
def test_certified_scan_reads_the_recorded_ball(family, rank):
    scan = certified_scan(AffineWeylGroup(root_system(family, rank)))
    assert (scan.visited, scan.stop_length) == _SCAN_BALLS[family, rank]


def test_recorded_balls_match_the_benchmark_baselines():
    scans = json.loads(_EXPECTED.read_text(encoding="utf-8"))["scans"]
    assert {f"{family}{rank}": list(ball) for (family, rank), ball
            in _SCAN_BALLS.items()} == scans


def test_certified_scan_budget_errors():
    group = AffineWeylGroup(root_system("A", 2))
    with pytest.raises(BudgetExceededError) as info:
        certified_scan(group, budget=5)
    assert info.value.bound == 5
    with pytest.raises(BudgetExceededError) as info:
        certified_scan(group, max_length=2)
    assert info.value.bound == 2


def test_certified_scan_raises_when_the_walk_ends(monkeypatch):
    """A walk that ends before every sign type has its minimum (A2 needs
    shells 0..4) raises instead of reaching the count assertion."""
    shells = AffineWeylGroup.shells
    monkeypatch.setattr(AffineWeylGroup, "shells",
                        lambda group, *args, **kwargs:
                        islice(shells(group, *args, **kwargs), 3))
    with pytest.raises(BudgetExceededError, match="frontier emptied"):
        certified_scan(AffineWeylGroup(root_system("A", 2)))


def test_low_and_finite_enumerations_read_the_one_walk(monkeypatch):
    """``enumerate_low`` and ``finite_elements`` each read
    ``AffineWeylGroup.shells`` once, pruned by their own predicate."""
    shells = AffineWeylGroup.shells
    walks = []

    def counted(group, *args, **kwargs):
        walks.append(kwargs.get("keep"))
        return shells(group, *args, **kwargs)
    monkeypatch.setattr(AffineWeylGroup, "shells", counted)
    group = AffineWeylGroup(root_system("A", 2))
    assert len(enumerate_low(group)) == 16
    assert len(walks) == 1 and walks[0] is not None
    assert len(group.finite_elements()) == 6
    assert len(walks) == 2 and walks[1] is not None


def test_enumerate_low_budget_bounds_the_low_elements():
    group = AffineWeylGroup(root_system("A", 2))
    assert len(enumerate_low(group, budget=16)) == 16
    with pytest.raises(BudgetExceededError) as info:
        enumerate_low(group, budget=15)
    assert info.value.bound == 15


def test_enumerate_low_counts(desk):
    system = desk.system
    assert len(desk.low) == system.region_count
    assert len(set(desk.low)) == len(desk.low)
    assert desk.group.identity in desk.low


def test_low_set_equals_scan_minima(desk):
    assert set(desk.low) == set(desk.scan.minima.values())


def test_low_elements_have_distinct_sign_types(desk):
    signs = {sign_of_shi(w.shi) for w in desk.low}
    assert len(signs) == len(desk.low)


def test_low_membership_predicate(desk):
    group = desk.group
    low_set = set(desk.low)
    for w in desk.ball(4):
        assert is_low(group, w) == (w in low_set)


def test_low_oracle_agreement_small_ball(a2):
    group, small = a2.group, a2.small
    for w in a2.ball(6):
        assert is_low(group, w) == is_low_by_cone(group, small, w)


def test_enumerate_low_fresh_run_matches_cached(a2):
    group = AffineWeylGroup(root_system("A", 2))
    fresh = enumerate_low(group)
    assert {tuple(w.shi) for w in fresh} == {tuple(w.shi) for w in a2.low}
