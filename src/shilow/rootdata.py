"""Finite irreducible crystallographic root systems in integers.

Roots are integer coordinate vectors in the simple-root basis.  The bilinear
form is the symmetrized Cartan matrix, normalized so that short roots have
squared length 2; with that normalization all coroots have integer
coordinates.  The one rational datum, the barycenter of the fundamental
alcove, is held as integers over one denominator: ``barycenter_int`` over
``scale``, which also absorbs the symmetrizer, so that coroots and
translation pairings stay integral after scaling.  The symmetrizer, the
Catalan number, the coweights behind the barycenter and its interior
check are computed in integers too, each division exact or checked.

Each fact the construction relies on (a connected, symmetrizable diagram,
integral reflections, the root counts and the Catalan number, an interior
alcove point, the shape of each rank-2 subsystem) is checked by an explicit
raise of ``RootDataError``, so an inconsistent datum is reported also
under ``python -O``.

Shi's inequalities, which characterise the coefficient vectors of
alcoves, are stated here once: ``root_sums`` lists the root sums they
range over, and ``alcove_vectors`` the integer vectors that satisfy them.
The kernel's facet test and the rank-2 admissibility tables read them.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property
from itertools import count, product
from math import gcd, lcm
from operator import add, attrgetter

_FAMILIES = tuple("ABCDEFG")  # a tuple: "in" on a string would accept "AB" or ""


class RootDataError(RuntimeError):
    """A root datum contradicts a fact the construction relies on.

    Raised, not asserted, so the check survives ``python -O``; the CLI
    reports it as a failure (exit 1) without a traceback.
    """


#: Classification constraints for irreducible types.
_RANK_RULES = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


class Record:
    """Equality and hash by value for the package's immutable records: a
    subclass sets ``_values`` to an ``attrgetter`` of its fields.  Records
    of different classes never compare equal."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))


class CartanType(Record):
    """Family letter plus rank of an irreducible crystallographic type."""

    __slots__ = ("family", "rank")
    _values = attrgetter(*__slots__)

    def __init__(self, family: str, rank: int):
        if family not in _FAMILIES:
            raise ValueError(
                f"unknown family {family!r}; expected one of {', '.join(_FAMILIES)}")
        if not isinstance(rank, int) or isinstance(rank, bool):
            raise ValueError(f"rank must be an integer, got {rank!r}")
        if not _RANK_RULES[family](rank):
            raise ValueError(f"invalid rank {rank} for family {family}")
        self.family = family
        self.rank = rank

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    def __str__(self) -> str:
        return self.name


def _cartan_matrix(family: str, n: int) -> list[list[int]]:
    """Cartan matrix a[i][j] = <coroot of alpha_i, alpha_j>, 0-indexed."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if family == "A":
        for i in range(n - 1):
            link(i, i + 1)
    elif family == "B":
        # First simple root short, the rest long.
        link(0, 1, -2, -1)
        for i in range(1, n - 1):
            link(i, i + 1)
    elif family == "C":
        # Last simple root long, the rest short.
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, -2, -1)
    elif family == "D":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 3, n - 1)
    elif family == "E":
        link(0, 2)
        link(1, 3)
        for i in range(2, n - 1):
            link(i, i + 1)
    elif family == "F":
        # First two simple roots long, last two short.
        link(0, 1)
        link(1, 2, -1, -2)
        link(2, 3)
    elif family == "G":
        # First simple root short.
        link(0, 1, -3, -1)
    return a


def _symmetrizer(cartan: list[list[int]]) -> list[int]:
    """Positive integers d with d[i]*a[i][j] symmetric, normalized to min 1.

    Walks the diagram from d[0] = 1 with d[j] = d[i] * a[i][j] / a[j][i],
    each d[j] a reduced pair (numerator, denominator), then clears the
    denominators and divides by the least entry."""
    n = len(cartan)
    d: list[tuple[int, int] | None] = [None] * n
    d[0] = (1, 1)
    stack = [0]
    while stack:
        i = stack.pop()
        num, den = d[i]
        for j in range(n):
            if i != j and cartan[i][j] and d[j] is None:
                num_j, den_j = num * cartan[i][j], den * cartan[j][i]
                common = gcd(num_j, den_j)
                d[j] = (num_j // common, den_j // common)
                stack.append(j)
    if any(x is None for x in d):
        raise RootDataError("Cartan diagram not connected")
    common = lcm(*(den for _, den in d))
    cleared = [num * (common // den) for num, den in d]
    low = min(cleared)
    if any(x % low for x in cleared):
        raise RootDataError(f"symmetrizer {cleared} over {low} is not integral")
    return [x // low for x in cleared]


def _root_closure(cartan: list[list[int]]) -> set[tuple[int, ...]]:
    """All roots, generated from the simples by simple reflections."""
    n = len(cartan)
    roots = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    frontier = list(roots)
    while frontier:
        r = frontier.pop()
        for i in range(n):
            pairing = sum(cartan[i][j] * r[j] for j in range(n))
            image = list(r)
            image[i] -= pairing
            image_t = tuple(image)
            if image_t not in roots:
                roots.add(image_t)
                frontier.append(image_t)
    return roots


def integer_inverse(rows) -> tuple[list[list[int]], int]:
    """(adj, det) with rows * adj = det * I and det > 0, for a nonsingular
    integer matrix: the inverse is adj / det.  Fraction-free Gauss-Jordan
    elimination, every division exact; raises ``ValueError`` on singular
    input."""
    n = len(rows)
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    previous = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        top = work[col]
        p = top[col]
        for r in range(n):
            if r != col:
                f = work[r][col]
                work[r] = [(p * x - f * y) // previous for x, y in zip(work[r], top)]
        previous = p
    # The left half is now previous * I, and previous = +-det.
    sign = 1 if previous > 0 else -1
    return [[sign * x for x in row[n:]] for row in work], sign * previous


def _pivot(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, int, int] | None:
    """The first coordinates (c1, c2) whose 2x2 minor det of u, v is
    nonzero, with det; None when u and v are parallel."""
    n = len(u)
    for c1 in range(n):
        for c2 in range(c1 + 1, n):
            det = u[c1] * v[c2] - u[c2] * v[c1]
            if det:
                return c1, c2, det
    return None


def _cramer_numerators(u: tuple[int, ...], v: tuple[int, ...], target: tuple[int, ...],
                       pivot: tuple[int, int, int]) -> tuple[int, int] | None:
    """Integers (xn, yn) with xn*u + yn*v = det*target, from Cramer's rule
    at the pivot; None when target is not in the span of u and v."""
    c1, c2, det = pivot
    xn = target[c1] * v[c2] - target[c2] * v[c1]
    yn = u[c1] * target[c2] - u[c2] * target[c1]
    if all(xn * a + yn * b == det * t for a, b, t in zip(u, v, target)):
        return xn, yn
    return None


def solve_two_unknowns(u: tuple[int, ...], v: tuple[int, ...],
                       target: tuple[int, ...]) -> tuple[int, int, int] | None:
    """Integers (xn, yn, det), det != 0, with xn*u + yn*v = det*target: the
    solution x = xn / det, y = yn / det; None if inconsistent or degenerate."""
    pivot = _pivot(u, v)
    numerators = None if pivot is None else _cramer_numerators(u, v, target, pivot)
    if numerators is None:
        return None
    return numerators[0], numerators[1], pivot[2]


class Rank2Subsystem(Record):
    """A rank-2 irreducible subsystem of a larger system.

    ``positions`` lists the parent indices of the subsystem's positive roots
    in the canonical order of the standalone rank-2 system of the same kind,
    so position p here corresponds to position p of that system's tables.
    """

    __slots__ = ("kind", "positions")
    _values = attrgetter(*__slots__)

    def __init__(self, kind: str, positions: tuple[int, ...]):
        self.kind = kind  # "A2" | "B2" | "G2"
        self.positions = positions


class PosetIdeal(Record):
    """An upward-closed subset of the positive-root poset.

    Both fields hold sorted indices into ``positive_roots``; ``antichain``
    is the set of minimal elements, which determines the ideal.
    """

    __slots__ = ("ideal", "antichain")
    _values = attrgetter(*__slots__)

    def __init__(self, ideal: tuple[int, ...], antichain: tuple[int, ...]):
        self.ideal = ideal
        self.antichain = antichain


_KIND_BY_SIZE = {3: "A2", 4: "B2", 6: "G2"}


class RootSystem:
    """A finite irreducible crystallographic root system, in integers; the
    order of its root poset is built on first use.

    Positive roots are listed in a fixed deterministic order: by height,
    ties broken so that earlier simple coordinates dominate (alpha_1 before
    alpha_2, ...).  The simples occupy the first ``rank`` positions and the
    highest root is last.
    """

    def __init__(self, cartan_type: CartanType):
        self.cartan_type = cartan_type
        n = self.rank = cartan_type.rank
        self.cartan = tuple(tuple(row) for row in _cartan_matrix(cartan_type.family, n))
        self.symmetrizer = tuple(_symmetrizer([list(r) for r in self.cartan]))
        self.gram = tuple(tuple(self.symmetrizer[i] * self.cartan[i][j] for j in range(n))
                          for i in range(n))
        if any(self.gram[i][j] != self.gram[j][i] for i in range(n) for j in range(n)):
            raise RootDataError(f"Cartan matrix of {cartan_type.name} is not symmetrizable")

        all_roots = _root_closure([list(r) for r in self.cartan])
        positives = [r for r in all_roots if all(c >= 0 for c in r)]
        positives.sort(key=lambda r: (sum(r), tuple(-c for c in r)))
        self.positive_roots: tuple[tuple[int, ...], ...] = tuple(positives)
        self.nroots = len(positives)
        self.root_index = {r: i for i, r in enumerate(positives)}
        self._all_roots = frozenset(all_roots)
        # The simples sit at positions 0..n-1 in diagram order: they are the
        # roots of height 1, and the tie-break puts e_i before e_(i+1).  The
        # sort by height puts the highest root last.
        self.heights = tuple(sum(r) for r in positives)
        self.highest_root = positives[-1]
        self.highest_index = self.nroots - 1
        self.coxeter_number = self.heights[-1] + 1

        self.exponents = self._exponents()
        degrees = [e + 1 for e in self.exponents]
        self.weyl_order = 1
        for deg in degrees:
            self.weyl_order *= deg
        catalan, divisor = 1, 1
        for e in self.exponents:
            catalan *= self.coxeter_number + e + 1
            divisor *= e + 1
        if catalan % divisor:
            raise RootDataError(f"Catalan number {catalan}/{divisor} of "
                                f"{cartan_type.name} is not an integer")
        self.catalan_number = catalan // divisor
        self.region_count = (self.coxeter_number + 1) ** n
        if self.nroots * 2 != n * self.coxeter_number:
            raise RootDataError(f"{self.nroots} positive roots, not n*h/2 = "
                                f"{n}*{self.coxeter_number}/2")

        # The fundamental coweights, dual to the simples under the form, are
        # the columns of adj / det.  The alcove's vertices are 0 and coweight
        # i over the highest root's coefficient c_i, so its barycenter has
        # coordinate j = sum_i adj[j][i] * (m / c_i) / (det * m * (n + 1))
        # for m = lcm(c).  ``scale`` is the least common multiple of those
        # coordinates' reduced denominators and the symmetrizer.
        adj, det = integer_inverse(self.gram)
        high = self.highest_root
        common = lcm(*high)
        denominator = det * common * (n + 1)
        numerators = [sum(adj[j][i] * (common // high[i]) for i in range(n))
                      for j in range(n)]
        self.scale = lcm(*(denominator // gcd(x, denominator) for x in numerators),
                         *self.symmetrizer)
        self.barycenter_int = tuple(x * self.scale // denominator for x in numerators)
        point = self.gram_image(self.barycenter_int)
        for root in positives:
            if not 0 < sum(p * c for p, c in zip(point, root)) < self.scale:
                raise RootDataError("alcove representative point must be interior")

    @cached_property
    def _leq(self) -> tuple[tuple[bool, ...], ...]:
        """``_leq[i][j]``: positive root i is below j, coordinatewise;
        built on first use by the poset and ideal code."""
        positives = self.positive_roots
        return tuple(tuple(all(b >= a for a, b in zip(positives[i], positives[j]))
                           for j in range(self.nroots))
                     for i in range(self.nroots))

    # ----------------------------------------------------- Shi's inequalities

    @cached_property
    def root_sums(self) -> tuple[tuple[int, int, int], ...]:
        """The index triples (b, c, t), b < c, with alpha_b + alpha_c =
        alpha_t, in (b, c) order; built on first use.

        Shi's inequalities k_b + k_c <= k_t <= k_b + k_c + 1, one pair per
        triple, characterise the coefficient vectors k of alcoves (Shi,
        J. London Math. Soc. 1987).  Every positive root that is not simple
        is the sum of two positive roots, so each such t appears here."""
        index, positives = self.root_index, self.positive_roots
        sums = tuple((b, c, t) for b in range(self.nroots) for c in range(b + 1, self.nroots)
                     if (t := index.get(tuple(map(add, positives[b], positives[c]))))
                     is not None)
        if {t for _, _, t in sums} != set(range(self.rank, self.nroots)):
            raise RootDataError(f"the root sums of {self.cartan_type.name} do not "
                                f"reach every non-simple positive root")
        return sums

    def alcove_vectors(self) -> Iterator[list[tuple[int, ...]]]:
        """The integer vectors that satisfy Shi's inequalities over
        ``root_sums``, hence the alcoves' coefficient vectors, as one list
        per radius R = 0, 1, ...: the vectors whose simple coordinates
        have largest absolute value R.  It never ends; the caller stops it.

        Each further coordinate t, in height order, runs through
        [max(k_b + k_c), min(k_b + k_c) + 1] over the triples that end in
        t.  Both parts of a sum come before it, so every inequality is
        tested once, where its sum is assigned, and no vector is missed."""
        n = self.rank
        splits: list[list[tuple[int, int]]] = [[] for _ in range(self.nroots)]
        for b, c, t in self.root_sums:
            splits[t].append((b, c))
        for radius in count():
            vectors = [simple for simple in product(range(-radius, radius + 1), repeat=n)
                       if max(map(abs, simple)) == radius]
            for pairs in splits[n:]:
                grown = []
                if len(pairs) == 1:
                    # One split: the range is just k_b + k_c and k_b + k_c + 1.
                    (b, c), = pairs
                    for vector in vectors:
                        k = vector[b] + vector[c]
                        grown += (vector + (k,), vector + (k + 1,))
                else:
                    for vector in vectors:
                        sums = [vector[b] + vector[c] for b, c in pairs]
                        grown.extend(vector + (k,) for k in range(max(sums), min(sums) + 2))
                vectors = grown
            yield vectors

    # ---------------------------------------------------------------- basics

    def is_root(self, coords: tuple[int, ...]) -> bool:
        return tuple(coords) in self._all_roots

    def inner(self, x: tuple[int, ...], y: tuple[int, ...]) -> int:
        n = self.rank
        return sum(x[i] * self.gram[i][j] * y[j] for i in range(n) for j in range(n))

    def norm(self, root: tuple[int, ...]) -> int:
        return self.inner(root, root)

    def gram_image(self, root: tuple[int, ...]) -> tuple[int, ...]:
        """The covector of pairing against ``root``: row vector root * gram."""
        n = self.rank
        return tuple(sum(root[i] * self.gram[i][j] for i in range(n)) for j in range(n))

    def reflect(self, root: tuple[int, ...], x: tuple[int, ...]) -> tuple[int, ...]:
        """Reflect the root ``x`` in the hyperplane of ``root``."""
        if not self.is_root(root):
            raise ValueError(f"{root} is not a root of {self.cartan_type.name}")
        pairing = 2 * self.inner(root, x)
        nrm = self.norm(root)
        if pairing % nrm:
            raise RootDataError(f"reflection in {root} maps {x} off the lattice")
        scale = pairing // nrm
        return tuple(xc - scale * rc for xc, rc in zip(x, root))

    def reflection_matrix(self, root: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Matrix of the reflection in ``root`` acting on root coordinates."""
        n = self.rank
        row = self.gram_image(root)
        nrm = sum(x * y for x, y in zip(row, root))
        mat = []
        for r in range(n):
            out = []
            for c in range(n):
                num = 2 * row[c] * root[r]
                if num % nrm:
                    raise RootDataError(f"reflection matrix of {root} is not integral")
                out.append((1 if r == c else 0) - num // nrm)
            mat.append(tuple(out))
        return tuple(mat)

    def _exponents(self) -> tuple[int, ...]:
        count_by_height: dict[int, int] = {}
        for h in self.heights:
            count_by_height[h] = count_by_height.get(h, 0) + 1
        layers = [count_by_height.get(k, 0) for k in range(1, max(self.heights) + 1)]
        # Nonincreasing layers led by the rank make the exponents (the dual
        # partition) sum to the number of positive roots.
        if layers[0] != self.rank or any(a < b for a, b in zip(layers, layers[1:])):
            raise RootDataError(f"root heights {layers} are not a partition led "
                                f"by the rank {self.rank}")
        return tuple(sorted(sum(1 for lam in layers if lam >= j)
                            for j in range(1, self.rank + 1)))

    def affine_length_counts(self, max_length: int) -> list[int]:
        """Elements of each length 0..max_length in the affine Weyl group.

        The coefficients of Bott's series: the product over the exponents
        e of (1 + t + ... + t^e) / (1 - t^e).
        """
        counts = [1] + [0] * max_length
        for e in self.exponents:
            counts = [sum(counts[max(0, d - e):d + 1]) for d in range(max_length + 1)]
            for d in range(e, max_length + 1):
                counts[d] += counts[d - e]
        return counts

    # ------------------------------------------------------------ root poset

    def antichains(self) -> list[frozenset[int]]:
        """All antichains of the positive-root poset, as index sets."""
        out: list[frozenset[int]] = []
        chosen: list[int] = []

        def extend(start: int) -> None:
            out.append(frozenset(chosen))
            for i in range(start, self.nroots):
                if all(not self._leq[i][j] and not self._leq[j][i] for j in chosen):
                    chosen.append(i)
                    extend(i + 1)
                    chosen.pop()

        extend(0)
        return out

    def up_closure(self, positions: frozenset[int]) -> frozenset[int]:
        return frozenset(j for j in range(self.nroots)
                         if any(self._leq[i][j] for i in positions))

    def poset_ideals(self) -> tuple[PosetIdeal, ...]:
        """All upward-closed subsets, paired with their minimal elements."""
        return self._ideals

    @cached_property
    def _ideals(self) -> tuple[PosetIdeal, ...]:
        items = []
        for antichain in self.antichains():
            # ``_leq`` is a partial order, so the minimal elements of the
            # up-closure of an antichain are the antichain itself.
            ideal = self.up_closure(antichain)
            items.append(PosetIdeal(tuple(sorted(ideal)), tuple(sorted(antichain))))
        items.sort(key=lambda p: (len(p.ideal), p.ideal))
        if len(items) != self.catalan_number:
            raise RootDataError(f"{len(items)} root poset ideals, not the Catalan "
                                f"number {self.catalan_number}")
        return tuple(items)

    # ---------------------------------------------------- rank-2 subsystems

    def _span_members(self, i: int, j: int) -> list[int]:
        """Positive roots lying in the rational span of roots i and j,
        tested in integers at one pivot of the pair."""
        u, v = self.positive_roots[i], self.positive_roots[j]
        pivot = _pivot(u, v)
        if pivot is None:
            return []
        return [k for k, root in enumerate(self.positive_roots)
                if _cramer_numerators(u, v, root, pivot) is not None]

    def rank2_subsystems(self) -> tuple[Rank2Subsystem, ...]:
        """All irreducible rank-2 subsystems spanned by root pairs.

        Subsystems are intersections of the root system with 2-dimensional
        rational spans; orthogonal (reducible) pairs whose span holds no
        further roots are excluded.
        """
        return self._rank2

    @cached_property
    def _rank2(self) -> tuple[Rank2Subsystem, ...]:
        seen: set[frozenset[int]] = set()
        found: list[Rank2Subsystem] = []
        for i in range(self.nroots):
            for j in range(i + 1, self.nroots):
                members = self._span_members(i, j)
                key = frozenset(members)
                if key in seen:
                    continue
                seen.add(key)
                if len(members) == 2:
                    continue  # orthogonal pair only: reducible
                found.append(self._build_subsystem(members))
        found.sort(key=lambda s: s.positions)
        return tuple(found)

    def _build_subsystem(self, members: list[int]) -> Rank2Subsystem:
        kind = _KIND_BY_SIZE[len(members)]
        roots = {m: self.positive_roots[m] for m in members}
        sums = set()
        for a in members:
            for b in members:
                sums.add(tuple(x + y for x, y in zip(roots[a], roots[b])))
        simples = [m for m in members if roots[m] not in sums]
        if len(simples) != 2:
            raise RootDataError(f"rank-2 subsystem {members} has simple roots {simples}")
        norms = [self.norm(roots[m]) for m in simples]
        if norms[0] != norms[1]:
            # Short simple first, matching the canonical B2/G2 conventions.
            simples.sort(key=lambda m: self.norm(roots[m]))
        elif kind != "A2":
            raise RootDataError(f"{kind} subsystem {members} has equal simple norms")
        else:
            simples.sort()
        s1, s2 = roots[simples[0]], roots[simples[1]]
        coords: list[tuple[int, int]] = []
        for m in members:
            solution = solve_two_unknowns(s1, s2, roots[m])
            if solution is None or any(c % solution[2] or c // solution[2] < 0
                                       for c in solution[:2]):
                raise RootDataError(f"root {roots[m]} is not a nonnegative integer "
                                    f"combination of the subsystem simples {s1}, {s2}")
            x, y, det = solution
            coords.append((x // det, y // det))
        order = sorted(range(len(members)),
                       key=lambda t: (sum(coords[t]), tuple(-c for c in coords[t])))
        return Rank2Subsystem(kind=kind, positions=tuple(members[t] for t in order))

    # -------------------------------------------------------------- exports

    def root_name(self, position: int) -> str:
        """Human-readable name like ``a1+a2`` or ``2a1+a2``."""
        parts = []
        for i, c in enumerate(self.positive_roots[position]):
            if c == 0:
                continue
            prefix = "" if c == 1 else str(c)
            parts.append(f"{prefix}a{i + 1}")
        return "+".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "type": self.cartan_type.name,
            "rank": self.rank,
            "cartan_matrix": [list(row) for row in self.cartan],
            "positive_roots": [list(r) for r in self.positive_roots],
            "highest_root": list(self.highest_root),
            "coxeter_number": self.coxeter_number,
            "exponents": list(self.exponents),
            "weyl_order": self.weyl_order,
            "catalan_number": self.catalan_number,
            "region_count_formula": self.region_count,
        }

    def __repr__(self) -> str:
        return f"RootSystem({self.cartan_type.name})"


def root_system(family: str, rank: int) -> RootSystem:
    """Convenience constructor from a family letter and rank."""
    return RootSystem(CartanType(family, rank))

