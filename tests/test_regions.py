"""Shi regions: tables, minimal elements, descent walls, the ideal bijection."""
from __future__ import annotations

import csv
import io
import json
from itertools import islice

import pytest

from shilow import (AffineWeylGroup, GroupElement, cli, descent_mask, descent_root_set,
                    dominant_pairs, ideal_closed_form_inversions, enumerate_regions,
                    ideal_sign_type, is_admissible, region_members, region_walk,
                    root_system, separation_set, sign_of_shi, verify)
from shilow.regions import SAMPLE_SIZE, ideal_entries, region_entries


def test_region_count(desk):
    assert len(desk.table) == desk.system.region_count
    assert [r.sign_type for r in desk.table.values()] == list(desk.table)


def test_regions_sorted_by_minimal_length(desk):
    lengths = [r.minimal.length for r in desk.table.values()]
    assert lengths == sorted(lengths)
    assert next(iter(desk.table.values())).minimal == desk.group.identity


def test_all_sign_types_admissible(desk):
    for region in desk.table.values():
        assert is_admissible(desk.system, region.sign_type)


def test_region_of_respects_sign_vector(desk):
    table = desk.table
    for shi in desk.ball(4):
        w = GroupElement(desk.group, shi)
        region = table[sign_of_shi(w.shi)]
        assert region.sign_type == sign_of_shi(w.shi)
        min_abs = desk.members[region.sign_type].min_abs
        assert all(m <= abs(k) for m, k in zip(min_abs, w.shi))


def test_minimal_element_is_shortest_sample(desk):
    for region in desk.table.values():
        samples = desk.members[region.sign_type].samples
        assert region.minimal in samples
        for w in samples:
            assert sign_of_shi(w.shi) == region.sign_type
            if w != region.minimal:
                assert w.length > region.minimal.length


@pytest.mark.parametrize("family, rank", [*verify.DESK_TYPES, ("B", 3)])
def test_member_index_buckets_the_scanned_ball(family, rank):
    """The member index equals a direct bucketing of the shells up to the
    scan's stop length, and each region's least coefficient magnitudes
    are those of its minimum."""
    scan = region_walk(AffineWeylGroup(root_system(family, rank)))
    group, table, index_of = scan.group, enumerate_regions(scan), region_members(scan)
    direct = {}
    for shell in islice(group.shells(), scan.stop_length + 1):
        for shi in shell:
            direct.setdefault(sign_of_shi(shi), []).append(GroupElement(group, shi))
    assert sum(map(len, direct.values())) == \
        sum(group.system.affine_length_counts(scan.stop_length))
    assert set(index_of) == set(direct) == set(table)
    for zeta, members in direct.items():
        index = index_of[zeta]
        assert index.samples == tuple(members[:SAMPLE_SIZE])
        assert index.min_abs == tuple(min(abs(w.shi[i]) for w in members)
                                      for i in range(len(zeta)))
        assert index.min_abs == tuple(abs(k) for k in table[zeta].minimal.shi)


def test_separation_set_is_sigma_of_minimal(desk):
    for region in desk.table.values():
        assert separation_set(desk.group, region) == desk.group.small.sigma(region.minimal)


def test_descent_roots_within_separation(desk):
    group = desk.group
    for region in desk.table.values():
        assert descent_root_set(group, region) <= separation_set(group, region)


@pytest.mark.parametrize("family, rank", [*verify.DESK_TYPES, ("B", 3)])
def test_recorded_descent_walls_equal_the_sign_type_route(family, rank):
    """A region's descent walls, read off its neighbours' separation
    masks, are the walls whose sign can be zeroed within admissibility."""
    system = root_system(family, rank)
    table = enumerate_regions(region_walk(AffineWeylGroup(system)))
    for region in table.values():
        assert region.descent_mask == descent_mask(system,
                                                   region.sign_type), region.sign_string


def test_dominant_characterization(desk):
    table = desk.table
    dominant = [r for r in table.values() if r.is_dominant]
    assert len(dominant) == desk.system.catalan_number
    for region in table.values():
        assert region.is_dominant == all(t >= 0 for t in region.sign_type)
        if region.is_dominant:
            assert all(k >= 0 for k in region.minimal.shi)


def test_ideal_bijection(desk):
    system = desk.system
    pairs = dominant_pairs(system, desk.table)
    assert len(pairs) == system.catalan_number
    seen = set()
    for ideal, region in pairs:
        trits = ideal_sign_type(system, ideal)
        assert region.sign_type == trits
        assert set(p for p, t in enumerate(trits) if t == 1) == set(ideal.ideal)
        seen.add(region.sign_type)
    assert len(seen) == len(pairs)


def test_closed_form_inversions_match_minimal_elements(desk):
    system, group = desk.system, desk.group
    pairs = dominant_pairs(system, desk.table)
    for ideal, region in pairs:
        assert ideal_closed_form_inversions(group, ideal) == group.inversion_set(
            region.minimal)


def test_ideal_descent_walls_are_antichain_roots(desk):
    system = desk.system
    table = desk.table
    for ideal, region in dominant_pairs(system, table):
        expected = {
            (tuple(-c for c in system.positive_roots[p]), 1)
            for p in ideal.antichain}
        walls = {(b.finite, b.delta) for b in descent_root_set(desk.group, region)}
        assert walls == expected


def _listing(capsys, desk, what: str, fmt: str) -> str:
    """The stdout of ``shilow enumerate what`` on the desk type."""
    kind = desk.system.cartan_type
    code = cli.main(["enumerate", what, "--type", kind.family,
                     "--rank", str(kind.rank), "--format", fmt])
    assert code == cli.EXIT_PASS
    return capsys.readouterr().out


def test_csv_rows_shape(desk, capsys):
    out = _listing(capsys, desk, "regions", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["sign_type", "separation", "descent_roots",
                       "minimal_word", "length", "dominant"]
    assert len(rows) == len(desk.table) + 1
    assert len(out.splitlines()) == len(rows)  # no cell spans two lines
    for row, region in zip(rows[1:], desk.table.values()):
        assert row[0] == region.sign_string
        assert row[4] == str(region.minimal.length)
        assert row[5] == ("yes" if region.is_dominant else "no")


def test_region_json_dict(desk, capsys):
    data = json.loads(_listing(capsys, desk, "regions", "json"))
    assert data["count"] == len(desk.table)
    assert len(data["regions"]) == data["count"]
    entries = region_entries(desk.group, desk.table.values())
    json.dumps(entries)  # serializable
    assert data["regions"] == entries
    entry = entries[0]
    assert entry["sign_type"] == next(iter(desk.table.values())).sign_string
    assert entry["minimal_word"] == []


def test_ideal_bijection_json(desk, capsys):
    data = json.loads(_listing(capsys, desk, "ideals", "json"))
    assert data["count"] == desk.system.catalan_number
    entries = ideal_entries(desk.group, desk.table)
    json.dumps(entries)
    assert data["pairs"] == entries
    empty = [p for p in entries if not p["ideal"]]
    assert len(empty) == 1
    assert empty[0]["minimal_word"] == []


def test_enumerate_regions_fresh_matches_context(b2):
    from shilow import AffineWeylGroup, root_system
    table = enumerate_regions(region_walk(AffineWeylGroup(root_system("B", 2))))
    assert {r.sign_type for r in table.values()} == {r.sign_type for r in b2.table.values()}
    for region in table.values():
        other = b2.table[region.sign_type]
        assert region.minimal.shi == other.minimal.shi
