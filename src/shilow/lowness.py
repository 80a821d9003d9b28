"""Small roots, small inversion sets, lowness tests, certified enumeration.

The small roots of an irreducible affine Weyl group are the level-zero
positive roots together with delta minus each positive root.  They are
indexed by the group's own table, ``AffineWeylGroup.small``: a
``SmallRoots``, defined in ``elements`` and imported here, which holds
the one sign/mask codec (a sign type or coefficient vector picks the
root itself at '-' and delta minus the root at '+').  An element is low
when its inversion set is the root-cone generated by its small
inversions; the production test
``is_low`` uses the equivalent basis criterion on the Shi vector (every
length-decreasing inversion is small, with lengths read from the
kernel's compiled ``reflected_lengths``), the cone test backs it as an
independent oracle.  The non-small inversions sit
only at coefficients ``m`` with ``|m| >= 2``: (-alpha, j) for
``2 <= j <= m`` and (alpha, j) for ``1 <= j <= -m-1``.

``region_walk`` and ``certified_scan`` both read the one walk
``AffineWeylGroup.shells()`` on bare Shi vectors, without matrices, and
make elements of the minima alone.  ``region_walk``, the production
walk, is pruned to the candidates of a new sign type and yields the
region minima and the low set at once: on every candidate, "new sign
type" must equal ``is_low``, and the low set is closed under left
quotients (a Garside shadow, after Dyer and Hohlweg), so each low
element extends its canonical parent and none is missed.
``enumerate_low`` reads it, and is the one place that orders the low
set (by ``GroupElement.sort_key``).  ``certified_scan`` reads the whole ball
until every sign type holds a certified shortest vector; it is the
oracle ``main-theorem`` compares the walk with where that ball fits the
budget, and the package runs it nowhere else.

Every enumeration is held to an element budget.  A walk of the unpruned
ball out to a length known in advance asks ``ball_within_budget`` first,
which reads the ball's size off Bott's series and refuses an oversized
ball with ``BudgetExceededError`` before any walk starts: the sweeps of
``verify.DeskContext.shells``, the member walk
``regions.region_members``, ``main-theorem``'s choice of its
full-ball oracle and the shell counts of the ``automaton`` text
summary.  ``certified_scan``, whose radius is not known in advance,
counts the elements shell by shell, and ``region_walk`` counts the
vectors it keeps.

Soundness of the cone test's finite window: every nonzero nonnegative
combination of positive affine roots pairs strictly positively with the
fundamental-alcove barycenter, so such a combination is never a negative
root; and every combination of members of N(w) pairs strictly negatively
with the w-alcove representative, so any root among them already lies in
N(w).  Hence cone(X) capped to roots is contained in N(w) whenever
X is a subset of N(w), and the substantive direction — each member of
N(w) is generated — is a finite list of exact cone tests, one
``ratlp.cone_members`` call per window.  The window is listed in
increasing order of h * delta + height, which is positive on every
positive affine root, so each root comes after its differences with the
generators and a sum of generators is certified without an LP.

The walks cross-check themselves, and a failed cross-check raises
``CertificationError`` (an explicit raise, so ``python -O`` keeps it).
Whether an element has a right descent inside its sign type
(``right_descent_within_sign_type``) is read off its Shi vector alone, by
``AffineWeylGroup.is_facet`` at the coefficients with ``|k| >= 2``.
"""

from __future__ import annotations

from .elements import AffineRoot, AffineWeylGroup, GroupElement, KernelError, SmallRoots
from .ratlp import cone_members
from .rootdata import RootSystem

DEFAULT_BUDGET = 500_000


class BudgetExceededError(RuntimeError):
    """An enumeration hit its element budget before certifying."""

    def __init__(self, bound: int, message: str):
        super().__init__(f"{message} (bound: {bound})")
        self.bound = bound


def ball_within_budget(system: RootSystem, length: int, budget: int, walk: str) -> int:
    """The number of elements of length at most ``length``, by Bott's
    series; ``BudgetExceededError`` naming ``walk`` when it exceeds
    ``budget`` (see the module notes on budgets)."""
    ball = sum(system.affine_length_counts(length))
    if ball > budget:
        raise BudgetExceededError(
            budget, f"the {walk} to length {length} would visit "
                    f"{ball} elements, more than the element budget")
    return ball


class CertificationError(RuntimeError):
    """A certified enumeration failed one of its own cross-checks: a sign
    type with two shortest elements, a count off (h+1)^n, a candidate
    whose lowness and sign-type novelty disagree, or a region table whose
    minima disagree with the sign-type combinatorics."""


def affine_root_vector(beta: AffineRoot) -> tuple[int, ...]:
    return beta.finite + (beta.delta,)


def positive_roots_window(group: AffineWeylGroup, max_delta: int) -> list[AffineRoot]:
    """All positive affine roots with delta coefficient at most
    ``max_delta``, in increasing order of h * delta + height, a functional
    positive on every positive affine root.  The sort is stable, so the
    roots of delta at most d, filtered out of a wider window, come in the
    order of the window at d."""
    out = []
    for root in group.system.positive_roots:
        neg = tuple(-c for c in root)
        out.extend(AffineRoot(root, k) for k in range(max_delta + 1))
        out.extend(AffineRoot(neg, k) for k in range(1, max_delta + 1))
    h = group.system.coxeter_number
    return sorted(out, key=lambda beta: h * beta.delta + sum(beta.finite))


def cone_window_members(generators, window: list[AffineRoot],
                        pool: list[list[int]] | None = None) -> frozenset[AffineRoot]:
    """The roots of ``window`` that the cone of ``generators`` contains.

    ``window`` lists positive affine roots in the order of
    ``positive_roots_window``, so that ``cone_members`` meets beta - g
    before beta for each generator g; ``pool`` is passed through to it."""
    inside = cone_members([affine_root_vector(g) for g in generators],
                          [affine_root_vector(beta) for beta in window], pool)
    return frozenset(beta for beta, member in zip(window, inside) if member)


def is_low(group: AffineWeylGroup, shi: tuple[int, ...]) -> bool:
    """Basis criterion on the Shi vector ``shi`` of w: every
    length-decreasing inversion is a small root.

    Reads only the coefficients m with |m| >= 2, which hold the non-small
    inversions, and takes the length of s_beta * w for each from the
    group's compiled ``reflected_lengths`` of its finite root:
    sum |s k_j + o - shift * slope|."""
    target = sum(map(abs, shi)) - 1
    lengths = group.reflected_lengths
    for i, m in enumerate(shi):
        if -2 < m < 2:
            continue
        length = lengths[i]
        # (-alpha_i, j) reflects with shift -j, (alpha_i, j) with shift j.
        for shift in range(-m, -1) if m > 0 else range(1, -m):
            if length(shi, shift) == target:
                return False
    return True


def is_low_by_cone(group: AffineWeylGroup, w: GroupElement) -> bool:
    """Cone criterion: N(w) equals the root cone of the small inversions.

    Verified two-sidedly inside the delta window covering N(w); outside
    the window the containment direction is automatic (see module notes).
    """
    inversions = group.inversion_set(w)
    sigma = group.small.sigma(w)
    if not sigma <= inversions:
        raise KernelError(f"coefficients {w.shi}: the small roots read off the "
                          f"signs are not all inversions")
    reach = max((beta.delta for beta in inversions), default=0) + 1
    return cone_window_members(sigma, positive_roots_window(group, reach)) == inversions


class ScanResult:
    """Output of a certified breadth-first walk: ``region_walk`` or the
    full-ball ``certified_scan``.

    ``minima`` maps each sign type to its unique shortest element, and
    ``stop_length`` is the length of the longest minimum.  ``visited``
    counts the vectors the walk weighed: for ``certified_scan``, every
    element of shells 0..stop_length; for ``region_walk``, the identity
    and every candidate whose lowness and sign-type novelty it compared.
    The other members of each sign type are not kept:
    ``regions.region_members`` walks the ball out to ``stop_length``
    when a check needs them.
    """

    __slots__ = ("group", "stop_length", "minima", "visited")

    def __init__(self, group: AffineWeylGroup, stop_length: int,
                 minima: dict[tuple[int, ...], GroupElement], visited: int):
        self.group = group
        self.stop_length = stop_length
        self.minima = minima
        self.visited = visited


def sign_of_shi(shi: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([(k > 0) - (k < 0) for k in shi])


def right_descent_within_sign_type(group: AffineWeylGroup, w: GroupElement) -> int | None:
    """The least position i whose wall is a facet of the w-alcove and whose
    right descent g keeps w * s_g in w's sign type, or ``None`` when every
    right descent leaves it, as it must at the shortest element of a sign
    type.

    w * s_g moves coefficient i one step towards zero, so it keeps the
    sign type exactly when |k(w, alpha_i)| >= 2.
    """
    shi = w.shi
    for i, k in enumerate(shi):
        if abs(k) >= 2 and group.is_facet(shi, i):
            return i
    return None


def certified_scan(group: AffineWeylGroup, budget: int = DEFAULT_BUDGET) -> ScanResult:
    """Breadth-first scan by length shells until every sign type has a
    certified minimal element.

    Reads ``group.shells()`` one shell at a time and stops at the end of
    the first shell after which all (h+1)^n sign types each hold their
    first-visited (hence shortest) element; every minimum then lies in a
    fully read shell.  Shell order makes first visits minimal.  A second
    element of a sign type in the shell of its minimum, or more sign
    types than (h+1)^n, raises ``CertificationError``.  A visit costs one
    sign tuple, one probe of the minima and, for a sign type already
    held, one probe of the shell's new sign types; nothing else is
    recorded.
    """
    target_count = group.system.region_count
    sign_type = group.sign_type
    minima: dict[tuple[int, ...], tuple[int, ...]] = {}
    visited = 0

    for length, shell in enumerate(group.shells()):
        # The scan ends only between shells, so a shell that takes the
        # count past the budget is the one that would have hit it.
        if visited + len(shell) > budget:
            raise BudgetExceededError(
                budget, "scan exceeded the element budget before certification")
        visited += len(shell)
        fresh = set()  # the sign types whose minimum lies in this shell
        for shi in shell:
            zeta = sign_type(shi)
            if zeta not in minima:
                minima[zeta] = shi
                fresh.add(zeta)
            elif zeta in fresh:
                raise CertificationError(
                    f"sign type {zeta} has two shortest elements, of length {length}")
        if len(minima) >= target_count:
            break
    else:
        raise BudgetExceededError(
            target_count, "scan frontier emptied before reaching the sign-type target")
    if len(minima) != target_count:
        raise CertificationError(f"the scan found {len(minima)} sign types, "
                                 f"not (h+1)^n = {target_count}")
    return ScanResult(group=group, stop_length=length, visited=visited,
                      minima={zeta: GroupElement(group, shi) for zeta, shi in minima.items()})


def region_walk(group: AffineWeylGroup, budget: int = DEFAULT_BUDGET) -> ScanResult:
    """The region minima, which are the low elements, from one walk of
    ``group.shells()`` pruned to the candidates whose sign type is new.

    On every candidate "its sign type is new" must equal ``is_low``, and
    no shell may hold two vectors of one new sign type; the kept count
    must be (h+1)^n.  Each failure raises ``CertificationError`` (the
    first two naming the vector).  The budget bounds the kept vectors: a
    shell that takes their count past it raises ``BudgetExceededError``.
    That a kept vector is the shortest of its whole region, not only of
    the walk, is ``regions.enumerate_regions``' check that it has no
    right descent inside its sign type.
    """
    target_count = group.system.region_count
    sign_type = group.sign_type
    identity = group.identity.shi
    minima = {sign_type(identity): identity}
    fresh: set[tuple[int, ...]] = set()  # the new sign types of the shell being built
    rejected = 0

    def keep(shi: tuple[int, ...]) -> bool:
        nonlocal rejected
        zeta = sign_type(shi)
        if zeta in fresh:
            raise CertificationError(f"sign type {zeta} has two shortest elements in "
                                     f"one shell: {minima[zeta]} and {shi}")
        new = zeta not in minima
        if new != is_low(group, shi):
            raise CertificationError(
                f"candidate {shi}: its sign type is {'new' if new else 'already met'}, "
                f"but it is {'not ' if new else ''}low")
        if new:
            minima[zeta] = shi
            fresh.add(zeta)
        else:
            rejected += 1
        return new

    kept = 0
    for length, shell in enumerate(group.shells(keep=keep)):
        kept += len(shell)
        if kept > budget:
            raise BudgetExceededError(
                budget, "the region walk kept more elements than its budget")
        fresh.clear()
    if kept != target_count:
        raise CertificationError(f"the region walk found {kept} sign types, "
                                 f"not (h+1)^n = {target_count}")
    return ScanResult(group=group, stop_length=length, visited=kept + rejected,
                      minima={zeta: GroupElement(group, shi) for zeta, shi in minima.items()})


def enumerate_low(group: AffineWeylGroup, budget: int = DEFAULT_BUDGET) -> list[GroupElement]:
    """All low elements, in ``GroupElement.sort_key`` order: the kept
    vectors of ``region_walk``, whose budget bounds them."""
    return sorted(region_walk(group, budget).minima.values(), key=GroupElement.sort_key)
