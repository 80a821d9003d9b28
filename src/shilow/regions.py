"""Shi regions: minimal elements, separation sets, descent walls, the dominant case.

A region is determined by its sign type.  The region table is a plain
dict from sign type to ``ShiRegion``, in table order (minimal length,
then sign string): ``enumerate_regions`` reads the minima of a scan
(``lowness.region_walk`` in production; the full-ball
``lowness.certified_scan`` gives the same), attaches the shortest element
of each region, and cross-checks them against the sign-type
combinatorics: every region's sign type must be admissible, its
separation set must match the minimal element's small inversion set, and
right-multiplying the minimal element by any descent generator must
leave the region, which the facet test reads off the minimum's Shi
vector without a reduced word
(``lowness.right_descent_within_sign_type``).  Shi regions are convex,
hence gated, so an element of a region with no right descent inside it
is the region's minimum: this last check is what makes each kept vector
of the pruned walk its region's minimum.  A failed cross-check raises
``lowness.CertificationError``.

The other members of each region within the ball out to the scan's stop
length are read only by ``region_members(scan, budget)``, which walks
``group.shells()`` up to that length and keeps per sign type the
componentwise minimum of the coefficient magnitudes and the first
``SAMPLE_SIZE`` members, the only vectors of the walk it makes elements
of.  It reads the scan alone, not the table, so it can run before the
table is built.  The ball's size is known beforehand from Bott's series
(``lowness.ball_within_budget``, from the type and the stop length
alone): a ball over the budget is refused before walking, with
``BudgetExceededError``, and the walk must see exactly that many
elements and exactly the sign types of the scan's minima, with the
minimum first in each, else ``CertificationError``.
Building the table, the minima and the exports never walk it: the
region members' least magnitudes are the minimum's own, which the
``descent-walls`` suite checks against this walk.

Each region records its descent walls, read off its neighbours:
the bits of its separation mask whose removal gives another region's
mask.  ``signtypes.descent_mask`` derives them from admissibility alone,
and the verification suites compare the two routes.

The dominant regions (no '-' signs) biject with the order ideals of the
positive root poset; the inversion set of the minimal element of the
region attached to an ideal is produced in closed form by an iterated
sum construction, giving an independent oracle for that corner of the
table.

The exports are the JSON entries of the listed regions
(``region_entries``) and of the ideal bijection (``ideal_entries``);
``shilow enumerate`` prints them as JSON and reads its CSV cells and text
lines off the same entries.
"""

from __future__ import annotations

from itertools import islice

from . import signtypes
from .elements import AffineRoot, AffineWeylGroup, GroupElement
from .lowness import (DEFAULT_BUDGET, CertificationError, ScanResult,
                      ball_within_budget, right_descent_within_sign_type)
from .rootdata import PosetIdeal, RootSystem

SAMPLE_SIZE = 8  # members kept per sign type by ``region_members``


class ShiRegion:
    """One region of the Shi arrangement with its certified data.  Its
    separation set is its sign type read through the group's codec
    (``separation_set``)."""

    __slots__ = ("sign_type", "descent_mask", "minimal")

    def __init__(self, sign_type: tuple[int, ...], descent_mask: int,
                 minimal: GroupElement):
        self.sign_type = sign_type
        self.descent_mask = descent_mask
        self.minimal = minimal

    @property
    def is_dominant(self) -> bool:
        return all(t >= 0 for t in self.sign_type)

    @property
    def sign_string(self) -> str:
        return signtypes.sign_string(self.sign_type)


class RegionMembers:
    """The members of one region in the scan's ball: the componentwise
    minimum of their coefficient magnitudes, and the first few of them in
    walk order, the region minimum first."""

    __slots__ = ("min_abs", "samples")

    def __init__(self, min_abs: tuple[int, ...], samples: tuple[GroupElement, ...]):
        self.min_abs = min_abs
        self.samples = samples


def region_members(scan: ScanResult,
                   budget: int = DEFAULT_BUDGET) -> dict[tuple[int, ...], RegionMembers]:
    """Each sign type's members in the ball out to ``scan.stop_length``,
    from one walk of ``group.shells()``.

    Refused by ``ball_within_budget`` before walking when the ball
    exceeds ``budget``.  Raises ``CertificationError`` unless the walk
    sees as many elements as Bott's series counts and meets exactly the
    sign types of ``scan.minima``, each first at its minimum."""
    group, stop_length, minima = scan.group, scan.stop_length, scan.minima
    ball = ball_within_budget(group.system, stop_length, budget, "member walk")
    sign_type = group.sign_type
    buckets: dict[tuple[int, ...], tuple[list[int], list[tuple[int, ...]]]] = {}
    seen = 0
    for shell in islice(group.shells(), stop_length + 1):
        seen += len(shell)
        for shi in shell:
            zeta = sign_type(shi)
            entry = buckets.get(zeta)
            if entry is None:
                buckets[zeta] = ([abs(k) for k in shi], [shi])
                continue
            low, samples = entry
            for i, k in enumerate(shi):
                if abs(k) < low[i]:
                    low[i] = abs(k)
            if len(samples) < SAMPLE_SIZE:
                samples.append(shi)
    if seen != ball:
        raise CertificationError(f"the member walk to length {stop_length} "
                                 f"saw {seen} elements, Bott's series {ball}")
    for zeta, (_, samples) in buckets.items():
        minimum = minima.get(zeta)
        if minimum is None or samples[0] != minimum.shi:
            raise CertificationError(f"sign type {zeta}: the first member of the "
                                     f"walk is not the region minimum")
    if len(buckets) != len(minima):
        raise CertificationError(f"the member walk met {len(buckets)} of the "
                                 f"{len(minima)} regions")
    return {zeta: RegionMembers(tuple(low), tuple(GroupElement(group, shi)
                                                  for shi in samples))
            for zeta, (low, samples) in buckets.items()}


def _descent_bits(mask: int, realized: set[int]) -> int:
    """The set bits of ``mask`` whose removal leaves a realized mask,
    each set bit read once."""
    descents, rest = 0, mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        if mask ^ bit in realized:
            descents |= bit
    return descents


def enumerate_regions(scan: ScanResult) -> dict[tuple[int, ...], ShiRegion]:
    """The region table of ``scan``'s minima, each certified as above:
    sign type -> region, sorted by minimal length, then sign string."""
    group = scan.group
    system, small = group.system, group.small
    found = []
    for zeta, minimal in scan.minima.items():
        if not signtypes.is_admissible(system, zeta):
            raise CertificationError(f"scanned sign type {zeta} is not admissible")
        mask = small.mask_from_shi(zeta)
        if mask != small.sigma_mask(minimal):
            raise CertificationError(
                f"sign type {zeta}: its separation mask is not the small inversion "
                f"set of its minimum (the compiled sign_type and the signs of the "
                f"minimum's vector disagree, or the scan keys the minimum under "
                f"another sign type)")
        if right_descent_within_sign_type(group, minimal) is not None:
            raise CertificationError(f"sign type {zeta}: its minimum has a right "
                                     f"descent inside the sign type")
        found.append((zeta, mask, minimal))
    realized = {mask for _, mask, _ in found}
    regions = [ShiRegion(sign_type=zeta, descent_mask=_descent_bits(mask, realized),
                         minimal=minimal)
               for zeta, mask, minimal in found]
    regions.sort(key=lambda r: (r.minimal.length, r.sign_string))
    return {r.sign_type: r for r in regions}


def descent_root_set(group: AffineWeylGroup, region: ShiRegion) -> frozenset[AffineRoot]:
    return group.small.set_from_mask(region.descent_mask)


def separation_set(group: AffineWeylGroup, region: ShiRegion) -> frozenset[AffineRoot]:
    small = group.small
    return small.set_from_mask(small.mask_from_shi(region.sign_type))


def ideal_sign_type(system: RootSystem, ideal: PosetIdeal) -> tuple[int, ...]:
    return tuple(int(p in ideal.ideal) for p in range(system.nroots))


def dominant_pairs(system: RootSystem, table: dict[tuple[int, ...], ShiRegion]
                   ) -> list[tuple[PosetIdeal, ShiRegion]]:
    """The bijection ideal -> dominant region ('+' on the ideal, 0 off it)
    of the region table ``table``."""
    pairs = []
    seen = set()
    for ideal in system.poset_ideals():
        region = table[ideal_sign_type(system, ideal)]
        if not region.is_dominant:
            raise CertificationError(f"the region of ideal {ideal.ideal} is not dominant")
        seen.add(region.sign_type)
        pairs.append((ideal, region))
    if seen != {r.sign_type for r in table.values() if r.is_dominant}:
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


def region_entries(group: AffineWeylGroup, regions) -> list[dict]:
    """The JSON entries of ``regions``: each region's separation and
    descent roots, named and sorted by delta level, then finite part, and
    its minimal element."""
    small = group.small

    def names(mask: int) -> list[str]:
        return [group.affine_root_name(b) for b in sorted(
            small.set_from_mask(mask), key=lambda b: (b.delta, b.finite))]
    return [{"sign_type": region.sign_string,
             "separation": names(small.mask_from_shi(region.sign_type)),
             "descent_roots": names(region.descent_mask),
             "minimal_word": list(group.word_from_element(region.minimal)),
             "minimal_coefficients": list(region.minimal.shi),
             "minimum_magnitudes": [abs(k) for k in region.minimal.shi],
             "dominant": region.is_dominant}
            for region in regions]


def ideal_entries(group: AffineWeylGroup,
                  table: dict[tuple[int, ...], ShiRegion]) -> list[dict]:
    """The JSON entries of the ideal bijection of the region table
    ``table``: each ideal and its antichain by root name, with its
    dominant region's sign and minimal word."""
    system = group.system
    return [{"ideal": [system.root_name(p) for p in ideal.ideal],
             "antichain": [system.root_name(p) for p in ideal.antichain],
             "sign_type": region.sign_string,
             "minimal_word": list(group.word_from_element(region.minimal))}
            for ideal, region in dominant_pairs(system, table)]
