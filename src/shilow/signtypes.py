"""Sign types of Shi regions: admissibility and descent-roots.

A sign type assigns -/0/+ to every positive root; the admissible ones are
exactly the componentwise sign patterns of alcove coefficient vectors and
index the regions of the Shi arrangement.  Admissibility is local: a sign
type is admissible iff its restriction to every irreducible rank-2
subsystem is (Shi 1987), and the rank-2 tables are generated from
certified scans of the three rank-2 affine groups rather than transcribed
from pictures.  ``_restrictions`` indexes those restrictions once per
type; ``violating_subsystems`` and the backtracking enumeration
``admissible_sign_types`` read it.  ``descent_mask`` derives a region's
descent walls from admissibility alone, independently of the region table.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache
from operator import itemgetter

from .elements import AffineWeylGroup
from .lowness import (DEFAULT_BUDGET, BudgetExceededError, CertificationError,
                      SmallRoots, certified_scan)
from .rootdata import CartanType, Rank2Subsystem, RootSystem, root_system

_SIGN_CHAR = {-1: "-", 0: "0", 1: "+"}
_CHAR_SIGN = {"-": -1, "0": 0, "+": 1}


def sign_string(trits: tuple[int, ...]) -> str:
    """Canonical text form over {-,0,+} in the deterministic root order."""
    return "".join(_SIGN_CHAR[t] for t in trits)


def parse_sign_string(text: str) -> tuple[int, ...]:
    try:
        return tuple(_CHAR_SIGN[c] for c in text)
    except KeyError as exc:
        raise ValueError(f"invalid sign character in {text!r}") from exc


@cache
def rank2_admissible_table(kind: str) -> frozenset[tuple[int, ...]]:
    """All admissible sign types of a standalone rank-2 system.

    Generated by a certified scan of the corresponding affine group: the
    scan stops only after (h+1)^2 distinct sign patterns each hold a
    shortest element, so the table is complete by the region count.
    """
    if kind not in ("A2", "B2", "G2"):
        raise ValueError(f"not an irreducible rank-2 kind: {kind!r}")
    system = root_system(kind[0], 2)
    table = frozenset(certified_scan(AffineWeylGroup(system)).minima)
    if len(table) != system.region_count:
        raise CertificationError(f"the {kind} table holds {len(table)} sign types, "
                                 f"not (h+1)^2 = {system.region_count}")
    return table


def restrict_to_subsystem(sub: Rank2Subsystem, trits: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(trits[p] for p in sub.positions)


_RESTRICTIONS: dict[CartanType, tuple[tuple, ...]] = {}


def _restrictions(system: RootSystem) -> tuple[tuple, ...]:
    """(subsystem, getter of its positions, its admissible table) per
    irreducible rank-2 subsystem, in ``rank2_subsystems`` order: read off
    the caller's system on the first call for its type, then kept."""
    key = system.cartan_type
    if key not in _RESTRICTIONS:
        _RESTRICTIONS[key] = tuple(
            (sub, itemgetter(*sub.positions), rank2_admissible_table(sub.kind))
            for sub in system.rank2_subsystems())
    return _RESTRICTIONS[key]


def violating_subsystems(system: RootSystem,
                         trits: tuple[int, ...]) -> Iterator[Rank2Subsystem]:
    """Each rank-2 subsystem whose restriction is inadmissible, in order."""
    for sub, restrict, table in _restrictions(system):
        if restrict(trits) not in table:
            yield sub


def violating_subsystem(system: RootSystem,
                        trits: tuple[int, ...]) -> Rank2Subsystem | None:
    """The first rank-2 subsystem whose restriction is inadmissible, if any."""
    return next(violating_subsystems(system, trits), None)


def is_admissible(system: RootSystem, trits: tuple[int, ...]) -> bool:
    if len(trits) != system.nroots:
        raise ValueError("sign type length does not match the positive root count")
    return violating_subsystem(system, trits) is None


def _require_admissible(system: RootSystem, trits: tuple[int, ...]) -> None:
    if not is_admissible(system, trits):
        raise ValueError(f"sign type {sign_string(trits)} is not admissible "
                         f"for {system.cartan_type.name}")


def admissible_sign_types(system: RootSystem,
                          budget: int = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
    """All admissible sign types, in the order of ``product((-1, 0, 1), repeat=N)``.

    A depth-first assignment of positions 0..N-1, each trying -1, 0, +1 in
    turn.  Every rank-2 subsystem is tested against its table as soon as
    its largest position is assigned, so a branch dies at the first
    inadmissible restriction instead of being filtered after all N
    positions are set.  ``budget`` bounds the number of partial sign types
    examined (one per value tried at a position).
    """
    n = system.nroots
    closing: list[list[tuple]] = [[] for _ in range(n)]  # (getter, table) by last position
    for sub, restrict, table in _restrictions(system):
        closing[max(sub.positions)].append((restrict, table))
    trits = [0] * n
    found: list[tuple[int, ...]] = []
    examined = 0

    def extend(p: int) -> None:
        nonlocal examined
        for value in (-1, 0, 1):
            examined += 1
            if examined > budget:
                raise BudgetExceededError(
                    budget, "sign-type enumeration examined more partial "
                            "sign types than the budget")
            trits[p] = value
            for restrict, table in closing[p]:
                if restrict(trits) not in table:
                    break
            else:
                if p + 1 < n:
                    extend(p + 1)
                else:
                    found.append(tuple(trits))
    extend(0)
    return found


def descent_mask(system: RootSystem, small: SmallRoots,
                 trits: tuple[int, ...]) -> int:
    """Descent-roots of the region: separating walls whose sign can be
    zeroed without leaving the admissible set."""
    _require_admissible(system, trits)
    return small.mask_from_shi(tuple(
        t if t and is_admissible(system, trits[:i] + (0,) + trits[i + 1:]) else 0
        for i, t in enumerate(trits)))


def reflect_sign_type(system: RootSystem, trits: tuple[int, ...],
                      simple_index: int, value: int) -> tuple[int, ...]:
    """The sign type across the wall of a simple root: each other positive
    root takes the sign of its image under the simple reflection, which
    permutes them; the simple root itself takes ``value``."""
    wall = system.positive_roots[simple_index]
    return tuple(value if i == simple_index
                 else trits[system.root_index[system.reflect(wall, root)]]
                 for i, root in enumerate(system.positive_roots))


def rank2_tables_json() -> dict[str, dict[str, object]]:
    """JSON-ready export of the three rank-2 admissibility tables.

    Each entry lists the positive roots of the rank-2 system (simple-root
    coordinates, in table position order) and the admissible sign strings.
    """
    out: dict[str, dict[str, object]] = {}
    for kind in ("A2", "B2", "G2"):
        system = root_system(kind[0], 2)
        table = rank2_admissible_table(kind)
        out[kind] = {
            "roots": [list(root) for root in system.positive_roots],
            "count": len(table),
            "admissible": sorted(sign_string(t) for t in table),
        }
    return out


def condition_star(system: RootSystem, trits: tuple[int, ...],
                   simple_index: int) -> bool:
    """Pairwise sum test for 'delta minus a simple root is a descent-root'.

    For a region with '+' at the simple root s: whenever s + beta is a
    positive root carrying '+', beta must carry 0 or +.
    """
    if not (simple_index < system.rank and trits[simple_index] > 0):
        raise ValueError(f"condition_star needs a '+' at a simple root, not at {simple_index}")
    simple = system.positive_roots[simple_index]
    for i, beta in enumerate(system.positive_roots):
        total = tuple(a + b for a, b in zip(simple, beta))
        j = system.root_index.get(total)
        if j is not None and trits[j] > 0 and trits[i] < 0:
            return False
    return True
