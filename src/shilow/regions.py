"""Shi regions: minimal elements, separation sets, descent walls, the dominant case.

A region is determined by its sign type.  The table builder takes a
certified scan, attaches the shortest element of each region together
with the componentwise minimum of the coefficient magnitudes and a few
sample elements, and cross-checks the scan against the sign-type
combinatorics: every region's sign type must be admissible, its
separation set must match the minimal element's small inversion set, and
right-multiplying the minimal element by any descent generator must
leave the region, which the facet test reads off the minimum's Shi
vector without a reduced word (``lowness.right_descent_within_sign_type``).
A failed cross-check raises ``lowness.CertificationError``.

Each region records its descent walls, read off its neighbours:
the bits of its separation mask whose removal gives another region's
mask.  ``signtypes.descent_mask`` derives them from admissibility alone,
and the verification suites compare the two routes.

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
    descent_mask: int
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
        if len(self.by_sign) != len(self.regions):
            raise CertificationError("two regions of the table share a sign type")

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
    found = []
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
        found.append((zeta, mask, minimal))
    realized = {mask for _, mask, _ in found}
    bits = [1 << i for i in range(2 * small.count)]
    regions = [ShiRegion(sign_type=zeta, separation_mask=mask,
                         descent_mask=sum(b for b in bits if mask & b
                                          and (mask ^ b) in realized),
                         minimal=minimal,
                         min_abs=scan.min_abs[zeta],
                         samples=scan.samples[zeta])
               for zeta, mask, minimal in found]
    regions.sort(key=lambda r: (r.minimal.length, r.sign_string))
    return RegionTable(group=group, small=small, regions=tuple(regions))


def descent_root_set(table: RegionTable, region: ShiRegion) -> frozenset[AffineRoot]:
    return table.small.set_from_mask(region.descent_mask)


def separation_set(table: RegionTable, region: ShiRegion) -> frozenset[AffineRoot]:
    return table.small.set_from_mask(region.separation_mask)


def ideal_sign_type(system: RootSystem, ideal: PosetIdeal) -> tuple[int, ...]:
    return tuple(int(p in ideal.ideal) for p in range(system.nroots))


def dominant_pairs(system: RootSystem,
                   table: RegionTable) -> list[tuple[PosetIdeal, ShiRegion]]:
    """The bijection ideal -> dominant region ('+' on the ideal, 0 off it)."""
    pairs = []
    seen = set()
    for ideal in system.poset_ideals():
        region = table.by_sign[ideal_sign_type(system, ideal)]
        if not region.is_dominant:
            raise CertificationError(f"the region of ideal {ideal.ideal} is not dominant")
        seen.add(region.sign_type)
        pairs.append((ideal, region))
    if seen != {r.sign_type for r in table.dominant_regions()}:
        raise CertificationError("the ideals do not reach every dominant region")
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
        if level > system.coxeter_number:
            raise CertificationError(f"ideal {ideal.ideal}: the sums reach level {level} > h")
    return frozenset(inversions)


def _named_walls(table: RegionTable, region: ShiRegion) -> tuple[list[str], ...]:
    """The names of the region's separation roots and of its descent roots,
    each sorted by delta level, then finite part."""
    return tuple([table.group.affine_root_name(b) for b in sorted(
        table.small.set_from_mask(mask), key=lambda b: (b.delta, b.finite))]
        for mask in (region.separation_mask, region.descent_mask))


def region_csv_rows(table: RegionTable, regions) -> list[list[str]]:
    """Flat export of ``regions``: sign, separation, descent roots, minimal word."""
    group = table.group
    rows = [["sign_type", "separation", "descent_roots", "minimal_word",
             "length", "dominant"]]
    for region in regions:
        rows.append([
            region.sign_string,
            *map(" ".join, _named_walls(table, region)),
            word_text(group.word_from_element(region.minimal)),
            str(region.minimal.length),
            "yes" if region.is_dominant else "no",
        ])
    return rows


def region_json_dict(table: RegionTable, regions) -> dict:
    """JSON export of ``regions``, each with its walls and minimal element."""
    group = table.group
    entries = []
    for region in regions:
        separation, descent = _named_walls(table, region)
        entries.append({
            "sign_type": region.sign_string,
            "separation": separation,
            "descent_roots": descent,
            "minimal_word": list(group.word_from_element(region.minimal)),
            "minimal_coefficients": list(region.minimal.shi),
            "minimum_magnitudes": list(region.min_abs),
            "dominant": region.is_dominant,
        })
    return {
        "type": group.system.cartan_type.family,
        "rank": group.system.cartan_type.rank,
        "count": len(entries),
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
