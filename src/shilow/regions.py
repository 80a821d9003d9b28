"""Shi regions: minimal elements, separation sets, and the dominant case.

A region is determined by its sign type.  The table builder takes a
certified scan, attaches the shortest element of each region together
with the componentwise minimum of the coefficient magnitudes and a few
sample elements, and cross-checks the scan against the sign-type
combinatorics: every region's sign type must be admissible, its
separation set must match the minimal element's small inversion set, and
right-multiplying the minimal element by any descent generator must
leave the region.  A failed cross-check raises
``lowness.CertificationError``.

The dominant regions (no '-' signs) biject with the order ideals of the
positive root poset; the inversion set of the minimal element of the
region attached to an ideal is produced in closed form by an iterated
sum construction, giving an independent oracle for that corner of the
table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import signtypes
from .elements import AffineRoot, AffineWeylGroup, GroupElement, word_text
from .lowness import (CertificationError, ScanResult, SmallRoots, certified_scan,
                      right_descent_within_sign_type, sign_of_shi)
from .rootdata import PosetIdeal, RootSystem


@dataclass(frozen=True)
class ShiRegion:
    """One region of the Shi arrangement with its certified data."""

    sign_type: tuple[int, ...]
    separation_mask: int
    minimal: GroupElement
    min_abs: tuple[int, ...]
    samples: tuple[GroupElement, ...]

    @property
    def is_dominant(self) -> bool:
        return all(t >= 0 for t in self.sign_type)

    @property
    def sign_string(self) -> str:
        return signtypes.sign_string(self.sign_type)


@dataclass
class RegionTable:
    """All regions of one affine type, sorted by minimal length then sign."""

    group: AffineWeylGroup
    small: SmallRoots
    regions: tuple[ShiRegion, ...]
    by_sign: dict[tuple[int, ...], ShiRegion] = field(init=False)

    def __post_init__(self) -> None:
        self.by_sign = {r.sign_type: r for r in self.regions}
        assert len(self.by_sign) == len(self.regions)

    def __iter__(self):
        return iter(self.regions)

    def __len__(self) -> int:
        return len(self.regions)

    def region_of(self, w: GroupElement) -> ShiRegion:
        return self.by_sign[sign_of_shi(w.shi)]

    def dominant_regions(self) -> list[ShiRegion]:
        return [r for r in self.regions if r.is_dominant]


def enumerate_regions(group: AffineWeylGroup,
                      scan: ScanResult | None = None) -> RegionTable:
    system = group.system
    if scan is None:
        scan = certified_scan(group)
    small = SmallRoots(group)
    regions = []
    for zeta, minimal in scan.minima.items():
        if not signtypes.is_admissible(system, zeta):
            raise CertificationError(f"scanned sign type {zeta} is not admissible")
        mask = signtypes.separation_mask(system, small, zeta)
        if mask != small.sigma_mask(minimal):
            raise CertificationError(f"sign type {zeta}: its separation mask is not "
                                     f"the small inversion set of its minimum")
        if right_descent_within_sign_type(group, minimal) is not None:
            raise CertificationError(f"sign type {zeta}: its minimum has a right "
                                     f"descent inside the sign type")
        regions.append(ShiRegion(
            sign_type=zeta,
            separation_mask=mask,
            minimal=minimal,
            min_abs=scan.min_abs[zeta],
            samples=scan.samples[zeta],
        ))
    regions.sort(key=lambda r: (r.minimal.length, r.sign_string))
    return RegionTable(group=group, small=small, regions=tuple(regions))


def descent_root_set(table: RegionTable, region: ShiRegion) -> frozenset[AffineRoot]:
    mask = signtypes.descent_mask(table.group.system, table.small, region.sign_type)
    return table.small.set_from_mask(mask)


def separation_set(table: RegionTable, region: ShiRegion) -> frozenset[AffineRoot]:
    return table.small.set_from_mask(region.separation_mask)


def ideal_sign_type(system: RootSystem, ideal: PosetIdeal) -> tuple[int, ...]:
    signs = [0] * system.nroots
    for p in ideal.ideal:
        signs[p] = 1
    return tuple(signs)


def dominant_pairs(system: RootSystem,
                   table: RegionTable) -> list[tuple[PosetIdeal, ShiRegion]]:
    """The bijection ideal -> dominant region ('+' on the ideal, 0 off it)."""
    pairs = []
    seen = set()
    for ideal in system.poset_ideals():
        region = table.by_sign[ideal_sign_type(system, ideal)]
        assert region.is_dominant
        seen.add(region.sign_type)
        pairs.append((ideal, region))
    dominant = {r.sign_type for r in table.dominant_regions()}
    assert seen == dominant
    return pairs


def ideal_closed_form_inversions(group: AffineWeylGroup,
                            ideal: PosetIdeal) -> frozenset[AffineRoot]:
    """Closed-form inversion set of the minimal element over an ideal.

    Layer k of the inversion set consists of k*delta minus the members of
    the k-th iterated sumset of the ideal inside the positive roots; the
    iteration is finite because heights add.
    """
    system = group.system
    base = {system.positive_roots[p] for p in ideal.ideal}
    inversions: set[AffineRoot] = set()
    layer = set(base)
    level = 1
    while layer:
        for root in layer:
            inversions.add(AffineRoot(tuple(-c for c in root), level))
        next_layer = set()
        for a in layer:
            for b in base:
                total = tuple(x + y for x, y in zip(a, b))
                if total in system.root_index:
                    next_layer.add(total)
        layer = next_layer
        level += 1
        assert level <= system.coxeter_number
    return frozenset(inversions)


def region_csv_rows(table: RegionTable) -> list[list[str]]:
    """Flat export: sign string, separation set, descent-roots, minimal word."""
    group = table.group
    rows = [["sign_type", "separation", "descent_roots", "minimal_word",
             "length", "dominant"]]
    for region in table.regions:
        sep = sorted(separation_set(table, region),
                     key=lambda b: (b.delta, b.finite))
        des = sorted(descent_root_set(table, region),
                     key=lambda b: (b.delta, b.finite))
        rows.append([
            region.sign_string,
            " ".join(group.affine_root_name(b) for b in sep),
            " ".join(group.affine_root_name(b) for b in des),
            word_text(group.word_from_element(region.minimal)),
            str(region.minimal.length),
            "yes" if region.is_dominant else "no",
        ])
    return rows


def region_json_dict(table: RegionTable) -> dict:
    group = table.group
    system = group.system
    entries = []
    for region in table.regions:
        entries.append({
            "sign_type": region.sign_string,
            "separation": [group.affine_root_name(b) for b in sorted(
                separation_set(table, region), key=lambda b: (b.delta, b.finite))],
            "descent_roots": [group.affine_root_name(b) for b in sorted(
                descent_root_set(table, region), key=lambda b: (b.delta, b.finite))],
            "minimal_word": list(group.word_from_element(region.minimal)),
            "minimal_coefficients": list(region.minimal.shi),
            "minimum_magnitudes": list(region.min_abs),
            "dominant": region.is_dominant,
        })
    return {
        "type": system.cartan_type.family,
        "rank": system.cartan_type.rank,
        "count": len(table.regions),
        "regions": entries,
    }


def ideal_bijection_json(system: RootSystem, table: RegionTable) -> dict:
    pairs = dominant_pairs(system, table)
    group = table.group
    entries = []
    for ideal, region in pairs:
        entries.append({
            "ideal": [system.root_name(p) for p in ideal.ideal],
            "antichain": [system.root_name(p) for p in ideal.antichain],
            "sign_type": region.sign_string,
            "minimal_word": list(group.word_from_element(region.minimal)),
        })
    return {
        "type": system.cartan_type.family,
        "rank": system.cartan_type.rank,
        "count": len(entries),
        "pairs": entries,
    }
