"""Sign types: parsing, rank-2 tables, admissibility, walls and descents."""
from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shilow import (AffineWeylGroup, BudgetExceededError, admissible_sign_types,
                    certified_scan, condition_star, descent_mask, is_admissible, parse_sign_string,
                    rank2_admissible_table, rank2_tables_json, root_system,
                    sign_string)
from shilow.signtypes import restrict_to_subsystem, violating_subsystem


def test_sign_string_round_trip():
    for trits in itertools.product((-1, 0, 1), repeat=4):
        assert parse_sign_string(sign_string(trits)) == trits
    assert sign_string(()) == ""


def test_parse_rejects_bad_characters():
    with pytest.raises(ValueError):
        parse_sign_string("+-*")
    with pytest.raises(ValueError):
        parse_sign_string("+1-")


def test_is_admissible_rejects_wrong_length():
    system = root_system("A", 2)
    with pytest.raises(ValueError):
        is_admissible(system, (1, 0))


def test_rank2_table_sizes():
    assert len(rank2_admissible_table("A2")) == 16
    assert len(rank2_admissible_table("B2")) == 25
    assert len(rank2_admissible_table("G2")) == 49


@pytest.mark.parametrize("kind", ["A2", "B2", "G2"])
def test_rank2_table_equals_the_certified_scan(kind):
    """The tables come from Shi's inequalities alone; the full-ball scan of
    the rank-2 affine group stays their independent oracle."""
    scan = certified_scan(AffineWeylGroup(root_system(kind[0], 2)))
    assert rank2_admissible_table(kind) == frozenset(scan.minima)


def test_rank2_tables_contain_constant_types():
    for kind, size in (("A2", 3), ("B2", 4), ("G2", 6)):
        table = rank2_admissible_table(kind)
        assert (0,) * size in table
        assert (1,) * size in table
        assert (-1,) * size in table


def test_rank2_table_is_cached():
    assert rank2_admissible_table("A2") is rank2_admissible_table("A2")


def test_admissible_counts_match_region_formula(desk):
    system = desk.system
    admissible = admissible_sign_types(system)
    assert len(admissible) == system.region_count
    realized = {region.sign_type for region in desk.table.values()}
    assert set(admissible) == realized


def test_violating_subsystem_found_iff_inadmissible():
    system = root_system("B", 2)
    for trits in itertools.product((-1, 0, 1), repeat=4):
        bad = violating_subsystem(system, trits)
        assert (bad is None) == is_admissible(system, trits)
        if bad is not None:
            restriction = restrict_to_subsystem(bad, trits)
            assert restriction not in rank2_admissible_table(bad.kind)


def test_restriction_reorders_by_subsystem_positions():
    system = root_system("A", 3)
    sub = system.rank2_subsystems()[0]
    trits = tuple(range(system.nroots))  # distinct markers
    assert restrict_to_subsystem(sub, trits) == tuple(
        trits[p] for p in sub.positions)


def test_admissibility_is_local_to_rank2_restrictions(a3):
    system = a3.system
    subs = system.rank2_subsystems()
    for trits in itertools.islice(
            itertools.product((-1, 0, 1), repeat=system.nroots), 0, None, 7):
        expected = all(
            restrict_to_subsystem(sub, trits)
            in rank2_admissible_table(sub.kind)
            for sub in subs)
        assert is_admissible(system, trits) == expected


def brute_force_admissible(system):
    """The reference enumeration: every one of the 3^N products, filtered."""
    return [trits for trits in itertools.product((-1, 0, 1), repeat=system.nroots)
            if is_admissible(system, trits)]


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "A4"])
def test_backtracking_equals_brute_force(name):
    system = root_system(name[0], int(name[1:]))
    assert admissible_sign_types(system) == brute_force_admissible(system)


@pytest.mark.parametrize("name", ["D4", "B4", "C4", "A5"])
def test_admissible_count_at_rank_four_and_five(name):
    """3^N exceeds the default budget on each of these types."""
    system = root_system(name[0], int(name[1:]))
    admissible = admissible_sign_types(system)
    assert len(admissible) == system.region_count
    assert len(set(admissible)) == len(admissible)


_LOCALITY_SYSTEMS = {name: root_system(name[0], int(name[1:]))
                     for name in ("B3", "A4", "D4")}


@functools.cache
def _admissible_set(name):
    return frozenset(admissible_sign_types(_LOCALITY_SYSTEMS[name]))


@st.composite
def typed_sign_types(draw):
    """A type among B3, A4, D4 and a sign type over its positive roots,
    drawn half the time from the admissible set."""
    name = draw(st.sampled_from(sorted(_LOCALITY_SYSTEMS)))
    if draw(st.booleans()):
        return name, draw(st.sampled_from(sorted(_admissible_set(name))))
    size = _LOCALITY_SYSTEMS[name].nroots
    return name, tuple(draw(st.lists(st.sampled_from((-1, 0, 1)),
                                     min_size=size, max_size=size)))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(typed_sign_types())
def test_rank2_locality_matches_the_enumeration(drawn):
    """The per-type filter (``violating_subsystem``) and the backtracker
    agree: a sign type is admissible iff it is enumerated."""
    name, trits = drawn
    assert is_admissible(_LOCALITY_SYSTEMS[name], trits) == (
        trits in _admissible_set(name))


def test_budget_bounds_the_partial_sign_types_examined():
    """A4 is enumerated after 7,944 partial sign types, not 3^10 products."""
    system = root_system("A", 4)
    assert len(admissible_sign_types(system, budget=7944)) == 1296
    with pytest.raises(BudgetExceededError):
        admissible_sign_types(system, budget=7943)


def test_admissible_budget_guard():
    system = root_system("A", 3)
    with pytest.raises(BudgetExceededError):
        admissible_sign_types(system, budget=10)


def test_identity_region_has_empty_masks(desk):
    system, small = desk.system, desk.group.small
    zero = (0,) * system.nroots
    assert small.mask_from_shi(zero) == 0
    assert descent_mask(system, zero) == 0


def test_separation_mask_encodes_signs(desk):
    small = desk.group.small
    for region in desk.table.values():
        mask = small.mask_from_shi(region.sign_type)
        for i, t in enumerate(region.sign_type):
            assert bool(mask >> i & 1) == (t < 0)
            assert bool(mask >> (small.count + i) & 1) == (t > 0)


def test_descent_mask_subset_of_separation(desk):
    system, small = desk.system, desk.group.small
    for region in desk.table.values():
        sep = small.mask_from_shi(region.sign_type)
        des = descent_mask(system, region.sign_type)
        assert des & ~sep == 0


def test_descent_mask_marks_zeroable_positions(b2):
    system, small = b2.system, b2.group.small
    for region in b2.table.values():
        trits = region.sign_type
        des = descent_mask(system, trits)
        for i, t in enumerate(trits):
            if t == 0:
                continue
            bit = i if t < 0 else small.count + i
            zeroed = trits[:i] + (0,) + trits[i + 1:]
            assert bool(des >> bit & 1) == is_admissible(system, zeroed)


def test_condition_star_matches_zeroed_admissibility(desk):
    system = desk.system
    for region in desk.table.values():
        trits = region.sign_type
        for s in range(system.rank):
            if trits[s] <= 0:
                continue
            zeroed = trits[:s] + (0,) + trits[s + 1:]
            assert condition_star(system, trits, s) == is_admissible(
                system, zeroed)


def test_rank2_tables_json_shape():
    data = rank2_tables_json()
    assert set(data) == {"A2", "B2", "G2"}
    for kind, entry in data.items():
        table = rank2_admissible_table(kind)
        assert entry["count"] == len(table)
        assert len(entry["roots"]) == len(next(iter(table)))
        assert entry["admissible"] == sorted(entry["admissible"])
        assert {parse_sign_string(s) for s in entry["admissible"]} == table
