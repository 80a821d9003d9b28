"""Finite irreducible crystallographic root systems over exact arithmetic.

Roots are integer coordinate vectors in the simple-root basis.  The bilinear
form is the symmetrized Cartan matrix, normalized so that short roots have
squared length 2; with that normalization all coroots have integer
coordinates and every pairing needed downstream stays rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

_FAMILIES = "ABCDEFG"

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


@dataclass(frozen=True)
class CartanType:
    """Family letter plus rank of an irreducible crystallographic type."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {', '.join(_FAMILIES)}")
        if not isinstance(self.rank, int) or isinstance(self.rank, bool):
            raise ValueError(f"rank must be an integer, got {self.rank!r}")
        if not _RANK_RULES[self.family](self.rank):
            raise ValueError(f"invalid rank {self.rank} for family {self.family}")

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
    """Positive integers d with d[i]*a[i][j] symmetric, normalized to min 1."""
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if i != j and cartan[i][j] and d[j] is None:
                d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                stack.append(j)
    assert all(x is not None for x in d), "Cartan diagram not connected"
    low = min(d)
    scaled = [x / low for x in d]
    assert all(x.denominator == 1 for x in scaled)
    return [int(x) for x in scaled]


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


def invert_fraction_matrix(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    n = len(rows)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


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
                       target: tuple[int, ...]) -> tuple[Fraction, Fraction] | None:
    """Solve x*u + y*v = target exactly; None if inconsistent or degenerate."""
    pivot = _pivot(u, v)
    numerators = None if pivot is None else _cramer_numerators(u, v, target, pivot)
    if numerators is None:
        return None
    return Fraction(numerators[0], pivot[2]), Fraction(numerators[1], pivot[2])


@dataclass(frozen=True)
class Rank2Subsystem:
    """A rank-2 irreducible subsystem of a larger system.

    ``positions`` lists the parent indices of the subsystem's positive roots
    in the canonical order of the standalone rank-2 system of the same kind,
    so position p here corresponds to position p of that system's tables.
    """

    kind: str  # "A2" | "B2" | "G2"
    positions: tuple[int, ...]
    simple_positions: tuple[int, int]
    internal_coords: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PosetIdeal:
    """An upward-closed subset of the positive-root poset.

    Both fields hold sorted indices into ``positive_roots``; ``antichain``
    is the set of minimal elements, which determines the ideal.
    """

    ideal: tuple[int, ...]
    antichain: tuple[int, ...]


_KIND_BY_SIZE = {3: "A2", 4: "B2", 6: "G2"}


class RootSystem:
    """A finite irreducible crystallographic root system, fully materialized.

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
        assert all(self.gram[i][j] == self.gram[j][i] for i in range(n) for j in range(n))

        all_roots = _root_closure([list(r) for r in self.cartan])
        positives = [r for r in all_roots if all(c >= 0 for c in r)]
        positives.sort(key=lambda r: (sum(r), tuple(-c for c in r)))
        self.positive_roots: tuple[tuple[int, ...], ...] = tuple(positives)
        self.nroots = len(positives)
        self.root_index = {r: i for i, r in enumerate(positives)}
        self._all_roots = frozenset(all_roots)
        # Simples must sit at positions 0..n-1 in diagram order.
        for i in range(n):
            assert self.positive_roots[i] == tuple(int(j == i) for j in range(n))

        self.heights = tuple(sum(r) for r in positives)
        self.highest_root = positives[-1]
        self.highest_index = self.nroots - 1
        assert self.heights[-1] == max(self.heights)
        self.coxeter_number = self.heights[-1] + 1

        self.exponents = self._exponents()
        degrees = [e + 1 for e in self.exponents]
        self.weyl_order = 1
        for deg in degrees:
            self.weyl_order *= deg
        cat = Fraction(1)
        for e in self.exponents:
            cat *= Fraction(self.coxeter_number + e + 1, e + 1)
        assert cat.denominator == 1
        self.catalan_number = int(cat)
        self.region_count = (self.coxeter_number + 1) ** n
        assert self.nroots * 2 == n * self.coxeter_number
        assert sum(self.exponents) == self.nroots

        gram_rows = [[Fraction(x) for x in row] for row in self.gram]
        inverse = invert_fraction_matrix(gram_rows)
        # Fundamental coweights: dual basis to the simples under the form.
        self.coweights = tuple(tuple(inverse[r][i] for r in range(n)) for i in range(n))
        high = self.highest_root
        self.alcove_vertices = (tuple(Fraction(0) for _ in range(n)),) + tuple(
            tuple(c / high[i] for c in self.coweights[i]) for i in range(n))
        self.barycenter = tuple(
            sum(v[j] for v in self.alcove_vertices) / (n + 1) for j in range(n))
        for idx in range(self.nroots):
            value = self.inner_fraction(self.barycenter, self.positive_roots[idx])
            assert 0 < value < 1, "alcove representative point must be interior"

        self._leq = tuple(
            tuple(all(b >= a for a, b in zip(positives[i], positives[j]))
                  for j in range(self.nroots))
            for i in range(self.nroots))
        self._rank2: tuple[Rank2Subsystem, ...] | None = None
        self._ideals: tuple[PosetIdeal, ...] | None = None

    # ---------------------------------------------------------------- basics

    def is_root(self, coords: tuple[int, ...]) -> bool:
        return tuple(coords) in self._all_roots

    def inner(self, x: tuple[int, ...], y: tuple[int, ...]) -> int:
        n = self.rank
        return sum(x[i] * self.gram[i][j] * y[j] for i in range(n) for j in range(n))

    def inner_fraction(self, x, y) -> Fraction:
        n = self.rank
        return sum((x[i] * self.gram[i][j] * y[j] for i in range(n) for j in range(n)),
                   Fraction(0))

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
        assert pairing % nrm == 0
        scale = pairing // nrm
        return tuple(xc - scale * rc for xc, rc in zip(x, root))

    def reflection_matrix(self, root: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Matrix of the reflection in ``root`` acting on root coordinates."""
        n = self.rank
        row = self.gram_image(root)
        nrm = self.norm(root)
        mat = []
        for r in range(n):
            out = []
            for c in range(n):
                num = 2 * row[c] * root[r]
                assert num % nrm == 0
                out.append((1 if r == c else 0) - num // nrm)
            mat.append(tuple(out))
        return tuple(mat)

    def _exponents(self) -> tuple[int, ...]:
        count_by_height: dict[int, int] = {}
        for h in self.heights:
            count_by_height[h] = count_by_height.get(h, 0) + 1
        layers = [count_by_height.get(k, 0) for k in range(1, max(self.heights) + 1)]
        assert layers[0] == self.rank and all(a >= b for a, b in zip(layers, layers[1:]))
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

    def poset_leq(self, i: int, j: int) -> bool:
        """True iff positive root i is below j (difference in cone of simples)."""
        return self._leq[i][j]

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
        if self._ideals is None:
            items = []
            for antichain in self.antichains():
                ideal = self.up_closure(antichain)
                minimal = frozenset(i for i in ideal
                                    if not any(self._leq[j][i] and j != i for j in ideal))
                assert minimal == antichain
                items.append(PosetIdeal(tuple(sorted(ideal)), tuple(sorted(antichain))))
            items.sort(key=lambda p: (len(p.ideal), p.ideal))
            assert len(items) == self.catalan_number
            self._ideals = tuple(items)
        return self._ideals

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
        if self._rank2 is not None:
            return self._rank2
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
        self._rank2 = tuple(found)
        return self._rank2

    def _build_subsystem(self, members: list[int]) -> Rank2Subsystem:
        kind = _KIND_BY_SIZE[len(members)]
        roots = {m: self.positive_roots[m] for m in members}
        sums = set()
        for a in members:
            for b in members:
                sums.add(tuple(x + y for x, y in zip(roots[a], roots[b])))
        simples = [m for m in members if roots[m] not in sums]
        assert len(simples) == 2
        norms = [self.norm(roots[m]) for m in simples]
        if norms[0] != norms[1]:
            # Short simple first, matching the canonical B2/G2 conventions.
            simples.sort(key=lambda m: self.norm(roots[m]))
        else:
            assert kind == "A2"
            simples.sort()
        s1, s2 = roots[simples[0]], roots[simples[1]]
        coords: list[tuple[int, int]] = []
        for m in members:
            solution = solve_two_unknowns(s1, s2, roots[m])
            assert solution is not None
            x, y = solution
            assert x.denominator == 1 and y.denominator == 1 and x >= 0 and y >= 0
            coords.append((int(x), int(y)))
        order = sorted(range(len(members)),
                       key=lambda t: (sum(coords[t]), tuple(-c for c in coords[t])))
        return Rank2Subsystem(
            kind=kind,
            positions=tuple(members[t] for t in order),
            simple_positions=(simples[0], simples[1]),
            internal_coords=tuple(coords[t] for t in order),
        )

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


def barycenter_denominator(system: RootSystem) -> int:
    """Least common multiple clearing the alcove representative point.

    The scale also absorbs the symmetrizer so that coroot coordinates and
    translation pairings stay integral after scaling.
    """
    denominators = [c.denominator for c in system.barycenter]
    return lcm(*denominators, *system.symmetrizer)
