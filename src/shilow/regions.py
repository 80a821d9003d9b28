"""Shi regions: minimal elements, separation sets, descent walls, the dominant case.

A region is determined by its sign type.  The table builder takes a
certified scan, attaches the shortest element of each region, and
cross-checks the scan against the sign-type combinatorics: every
region's sign type must be admissible, its separation set must match the
minimal element's small inversion set, and right-multiplying the minimal
element by any descent generator must leave the region, which the facet
test reads off the minimum's Shi vector without a reduced word
(``lowness.right_descent_within_sign_type``).  A failed cross-check
raises ``lowness.CertificationError``.

The other members of each region within the scanned ball are read only
on demand: ``RegionTable.members`` walks ``group.shells()`` once more,
up to the scan's stop length, and keeps per sign type the componentwise
minimum of the coefficient magnitudes and the first ``SAMPLE_SIZE``
members.  The walk must see exactly the scan's visited count, with the
region minimum first in each sign type, else ``CertificationError``.
Building the table, the minima and the text and CSV exports never walk
it; the JSON export's minimum magnitudes do.

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
from functools import cached_property
from itertools import islice

from . import signtypes
from .elements import AffineRoot, AffineWeylGroup, GroupElement, word_text
from .lowness import (CertificationError, ScanResult, SmallRoots, certified_scan,
                      right_descent_within_sign_type, sign_of_shi)
from .rootdata import PosetIdeal, RootSystem

SAMPLE_SIZE = 8  # members kept per sign type by ``RegionTable.members``


@dataclass(frozen=True)
class ShiRegion:
    """One region of the Shi arrangement with its certified data."""

    sign_type: tuple[int, ...]
    separation_mask: int
    descent_mask: int
    minimal: GroupElement

    @property
    def is_dominant(self) -> bool:
        return all(t >= 0 for t in self.sign_type)

    @property
    def sign_string(self) -> str:
        return signtypes.sign_string(self.sign_type)


@dataclass(frozen=True)
class RegionMembers:
    """The members of one region in the scanned ball: the componentwise
    minimum of their coefficient magnitudes, and the first few of them in
    walk order, the region minimum first."""

    min_abs: tuple[int, ...]
    samples: tuple[GroupElement, ...]


@dataclass
class RegionTable:
    """All regions of one affine type, sorted by minimal length then sign.

    ``stop_length`` and ``visited`` describe the certified scan's ball:
    its last shell and its element count."""

    group: AffineWeylGroup
    small: SmallRoots
    regions: tuple[ShiRegion, ...]
    stop_length: int
    visited: int
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

    @cached_property
    def members(self) -> dict[tuple[int, ...], RegionMembers]:
        """Each sign type's members in the scan's ball, from one walk of
        ``group.shells()`` up to ``stop_length``, built on first read.

        Raises ``CertificationError`` unless the walk sees ``visited``
        elements, every one in a region of the table, with each region's
        minimum as the first member of its sign type."""
        buckets: dict[tuple[int, ...], tuple[list[int], list[GroupElement]]] = {}
        seen = 0
        for shell in islice(self.group.shells(), self.stop_length + 1):
            seen += len(shell)
            for w in shell:
                shi = w.shi
                zeta = tuple([(k > 0) - (k < 0) for k in shi])  # sign_of_shi inlined
                entry = buckets.get(zeta)
                if entry is None:
                    buckets[zeta] = ([abs(k) for k in shi], [w])
                    continue
                low, samples = entry
                for i, k in enumerate(shi):
                    if abs(k) < low[i]:
                        low[i] = abs(k)
                if len(samples) < SAMPLE_SIZE:
                    samples.append(w)
        if seen != self.visited:
            raise CertificationError(f"the member walk to length {self.stop_length} "
                                     f"saw {seen} elements, the scan {self.visited}")
        for zeta, (_, samples) in buckets.items():
            region = self.by_sign.get(zeta)
            if region is None or samples[0] != region.minimal:
                raise CertificationError(f"sign type {zeta}: the first member of the "
                                         f"walk is not the region minimum")
        if len(buckets) != len(self.regions):
            raise CertificationError(f"the member walk met {len(buckets)} of the "
                                     f"{len(self.regions)} regions")
        return {zeta: RegionMembers(tuple(low), tuple(samples))
                for zeta, (low, samples) in buckets.items()}


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
                         minimal=minimal)
               for zeta, mask, minimal in found]
    regions.sort(key=lambda r: (r.minimal.length, r.sign_string))
    return RegionTable(group=group, small=small, regions=tuple(regions),
                       stop_length=scan.stop_length, visited=scan.visited)


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
            "minimum_magnitudes": list(table.members[region.sign_type].min_abs),
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
