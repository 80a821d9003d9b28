"""Exact cone membership by a fraction-free phase-1 simplex.

The tableau holds integers over one common denominator ``d``: each pivot
keeps its own row, replaces every other row ``x`` (and the reduced-cost
row) by ``(x * piv - f * y) // d`` and sets ``d = piv``, the integer
pivoting of Edmonds and Bareiss (Math. Comp. 1968), whose divisions are
exact.  Bland's rule picks the pivots, so the method terminates, and the
ratio test compares by cross-multiplication.

Every answer is certified with integer dot products before it is
returned, so its correctness does not rest on the pivoting code:

* a member comes with numerators ``num >= 0`` and the denominator ``d``
  with ``sum(num[j] * columns[j]) == d * target``;
* a non-member comes with a Farkas vector ``y``, read off the artificial
  columns of the final reduced-cost row, with ``y . g >= 0`` for every
  generator ``g`` and ``y . target < 0``.

A certificate that fails its check raises ``CertificateError``.

``cone_members`` tests many targets against one generator set and keeps
the certificates it finds, so that most targets need no LP:

* a Farkas vector found for one target often separates later ones too,
  so each is kept and tried, one dot product per target, first;
* a target t with t - g zero or an already certified member, for some
  generator g, is a member with that member's numerators plus one at g,
  over denominator 1 (the inversion sets of Shi's dominant region minima
  are such sums, k * delta less k roots of the ideal).

An answer either gives passes the same check as an LP's answer; only a
target neither settles goes to ``in_cone``.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Sequence


class CertificateError(RuntimeError):
    """A cone-membership answer whose certificate fails its integer check,
    or a tableau that no correct pivoting can reach."""


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _check_member(columns: Sequence[Sequence[int]], target: Sequence[int],
                  numerators: Sequence[int], d: int) -> None:
    """Raise unless ``numerators / d`` is a nonnegative combination of
    ``columns`` equal to ``target``."""
    if d <= 0 or len(numerators) != len(columns) or any(x < 0 for x in numerators):
        raise CertificateError(f"member certificate {list(numerators)}/{d} "
                               f"is not a nonnegative combination")
    for r, t in enumerate(target):
        if _dot(numerators, [col[r] for col in columns]) != d * t:
            raise CertificateError(f"member certificate {list(numerators)}/{d} "
                                   f"misses the target {list(target)} at row {r}")


def _check_farkas(columns: Sequence[Sequence[int]], target: Sequence[int],
                  y: Sequence[int]) -> None:
    """Raise unless ``y`` separates ``target`` from the cone of ``columns``."""
    if _dot(y, target) >= 0:
        raise CertificateError(f"Farkas vector {list(y)} does not pair negatively "
                               f"with the target {list(target)}")
    for col in columns:
        if _dot(y, col) < 0:
            raise CertificateError(f"Farkas vector {list(y)} pairs negatively "
                                   f"with the generator {list(col)}")


def nonnegative_combination(columns: Sequence[Sequence[int]],
                            target: Sequence[int]) -> tuple[list[int], int] | None:
    """Solve ``sum(lambda_j * columns[j]) == target`` with all lambda_j >= 0.

    Returns one exact solution as integer numerators over a common
    positive denominator, ``(numerators, d)``, or ``None`` when the
    system is infeasible.  Either answer has passed its certificate check.
    """
    return _solve(columns, target)[0]


def _solve(columns: Sequence[Sequence[int]], target: Sequence[int]) \
        -> tuple[tuple[list[int], int] | None, list[int] | None]:
    """``((numerators, d), None)`` for a member, ``(None, farkas)`` for a
    non-member; either certificate has passed its check."""
    m = len(target)
    k = len(columns)
    width = k + m
    # Rows with a negative target entry are negated so the artificial basis
    # starts feasible; ``signs`` remembers the flips for the Farkas vector.
    signs = [-1 if t < 0 else 1 for t in target]
    # Tableau: k structural columns, m artificial columns, rhs last.
    rows = [[s * col[r] for col in columns] + [int(i == r) for i in range(m)]
            + [s * target[r]] for r, s in enumerate(signs)]
    basis = list(range(k, width))
    d = 1
    # Reduced-cost row for minimizing the artificial sum: z[j] > 0 marks an
    # improving column; z[-1] is the current objective value.  It starts as
    # the column sums of the rows, less the unit cost of each artificial
    # column, and every entry is scaled by d, like the rows.
    z = [_dot(signs, col) for col in columns] + [0] * m + [sum(map(abs, target))]

    while z[width] > 0:
        enter = next((j for j in range(width) if z[j] > 0), None)
        if enter is None:
            break
        best = None
        for r in range(m):
            coeff = rows[r][enter]
            if coeff > 0:
                if best is None:
                    best = r
                    continue
                # rows[r][width] / coeff against the best ratio so far.
                lhs = rows[r][width] * rows[best][enter]
                rhs = rows[best][width] * coeff
                if lhs < rhs or (lhs == rhs and basis[r] < basis[best]):
                    best = r
        if best is None:
            raise CertificateError(f"no pivot row for the improving column {enter} "
                                   f"of an objective bounded below by zero")
        pivot_row = rows[best]
        piv = pivot_row[enter]
        for r in range(m):
            if r != best:
                f = rows[r][enter]
                rows[r] = [(x * piv - f * y) // d for x, y in zip(rows[r], pivot_row)]
        f = z[enter]
        z = [(x * piv - f * y) // d for x, y in zip(z, pivot_row)]
        d = piv
        basis[best] = enter

    if z[width] == 0:
        numerators = [0] * k
        for r, j in enumerate(basis):
            if j < k:
                numerators[j] = rows[r][width]
        _check_member(columns, target, numerators, d)
        return (numerators, d), None
    farkas = [-s * (z[k + r] + d) for r, s in enumerate(signs)]
    _check_farkas(columns, target, farkas)
    return None, farkas


def in_cone(generators: Iterable[Sequence[int]], target: Sequence[int],
            separators: list[list[int]] | None = None) -> bool:
    """True iff ``target`` is a nonnegative rational combination of ``generators``.

    When ``separators`` is a list, the checked Farkas vector of a
    non-member is appended to it."""
    combination, farkas = _solve(list(generators), target)
    if farkas is not None and separators is not None:
        separators.append(farkas)
    return combination is not None


def _step(columns: Sequence[Sequence[int]], target: Sequence[int],
          members: dict[tuple[int, ...], list[int]]) -> list[int] | None:
    """Integer numerators for ``target``: those of a known member
    ``target - g`` plus one at the generator g, or one at g alone when
    ``target == g``; ``None`` when no generator steps down to either."""
    for j, col in enumerate(columns):
        rest = tuple([t - c for t, c in zip(target, col)])
        if any(rest):
            numerators = members.get(rest)
            if numerators is None:
                continue
            numerators = list(numerators)
        else:
            numerators = [0] * len(columns)
        numerators[j] += 1
        return numerators
    return None


def cone_members(generators: Iterable[Sequence[int]],
                 targets: Iterable[Sequence[int]]) -> list[bool]:
    """``in_cone(generators, t)`` for each target ``t``, in order.

    Certificates found for earlier targets settle later ones without an
    LP.  The Farkas vectors found so far are tried first: one that pairs
    negatively with the target settles it once it passes
    ``_check_farkas``.  Then a decomposition: when t - g is zero or a
    member settled this way, for a generator g, t is a member with that
    member's numerators plus one at g, over denominator 1, once it passes
    ``_check_member``.  Otherwise ``in_cone`` solves an LP.  Targets
    listed in increasing order of a functional positive on every
    generator meet each t - g before t."""
    columns = list(generators)
    separators: list[list[int]] = []
    members: dict[tuple[int, ...], list[int]] = {}
    out = []
    for target in targets:
        for y in separators:
            if _dot(y, target) < 0:
                _check_farkas(columns, target, y)
                out.append(False)
                break
        else:
            numerators = _step(columns, target, members)
            if numerators is None:
                out.append(in_cone(columns, target, separators))
                continue
            _check_member(columns, target, numerators, 1)
            members[tuple(target)] = numerators
            out.append(True)
    return out
