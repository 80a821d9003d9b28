"""Affine Weyl group elements with exact integer arithmetic.

An element acts on the ambient space of the finite root system as
``x -> U x + t`` where ``U`` is the matrix of the finite part on
simple-root coordinates and ``t`` is a coroot-lattice translation.
Points and translations are stored as integer vectors scaled by a fixed
common denominator, so alcove coefficients come from exact floor
divisions and no floating point appears anywhere.

Every element eagerly carries its alcove coefficient vector (the integer
``k(w, alpha)`` for each positive root ``alpha``, measured at the image
of the fundamental-alcove barycenter); that vector determines the
element and drives lengths, descents, and inversion sets.
"""

from __future__ import annotations

from fractions import Fraction

from .rootdata import RootSystem, barycenter_denominator, invert_fraction_matrix


def _mat_mul(a: tuple[tuple[int, ...], ...],
             b: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    n = len(a)
    return tuple(tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n))
                 for r in range(n))


def _mat_vec(m: tuple[tuple[int, ...], ...], v: tuple[int, ...]) -> tuple[int, ...]:
    n = len(m)
    return tuple(sum(m[r][c] * v[c] for c in range(n)) for r in range(n))


def _identity_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(r == c) for c in range(n)) for r in range(n))


class AffineRoot:
    """A real affine root: finite part plus an integer multiple of delta."""

    __slots__ = ("finite", "delta", "_hash")

    def __init__(self, finite: tuple[int, ...], delta: int):
        self.finite = finite
        self.delta = delta
        self._hash = hash((finite, delta))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AffineRoot)
                and self.finite == other.finite and self.delta == other.delta)

    def __hash__(self) -> int:
        return self._hash

    def __neg__(self) -> AffineRoot:
        return AffineRoot(tuple(-c for c in self.finite), -self.delta)

    @property
    def is_positive(self) -> bool:
        if all(c >= 0 for c in self.finite) and any(self.finite):
            return self.delta >= 0
        if all(c <= 0 for c in self.finite) and any(self.finite):
            return self.delta >= 1
        raise ValueError(f"finite part {self.finite} is not a root vector")

    def __repr__(self) -> str:
        return f"AffineRoot({self.finite}, {self.delta})"


class GroupElement:
    """One affine Weyl group element; immutable, hashable, totally ordered.

    ``trans`` and ``point`` are scaled by the group's denominator.
    """

    __slots__ = ("group", "mat", "trans", "shi", "_hash")

    def __init__(self, group: AffineWeylGroup, mat: tuple[tuple[int, ...], ...],
                 trans: tuple[int, ...]):
        self.group = group
        self.mat = mat
        self.trans = trans
        point = tuple(p + t for p, t in zip(_mat_vec(mat, group.barycenter_int), trans))
        self.shi = tuple(
            _floor_div(sum(p * c for p, c in zip(point, cov)), group.scale)
            for cov in group.covectors)

    @property
    def point(self) -> tuple[int, ...]:
        """Image of the fundamental-alcove barycenter, computed on each read."""
        return tuple(p + t for p, t in
                     zip(_mat_vec(self.mat, self.group.barycenter_int), self.trans))

    @property
    def length(self) -> int:
        return sum(abs(k) for k in self.shi)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GroupElement)
                and self.group.system.cartan_type == other.group.system.cartan_type
                and self.mat == other.mat and self.trans == other.trans)

    def __hash__(self) -> int:
        return hash((self.mat, self.trans))

    def __mul__(self, other: GroupElement) -> GroupElement:
        return self.group.multiply(self, other)

    def inverse(self) -> GroupElement:
        return self.group.inverse(self)

    def sort_key(self) -> tuple:
        return (self.length, self.shi)

    def __repr__(self) -> str:
        word = word_text(self.group.word_from_element(self))
        return f"<{self.group.system.cartan_type.name}~ {word}>"


def word_text(word) -> str:
    """A word in the generators as text: ``s0s2s1``, or ``e`` when empty."""
    return "".join(f"s{g}" for g in word) or "e"


def _floor_div(num: int, den: int) -> int:
    return num // den  # Python floor division is exact floor for any sign


class AffineWeylGroup:
    """The affine Weyl group of a finite irreducible root system.

    Generators are indexed 0..n: index 0 is the affine reflection through
    the level-one hyperplane of the highest root, indices 1..n are the
    finite simple reflections in diagram order.
    """

    def __init__(self, system: RootSystem):
        self.system = system
        n = system.rank
        self.scale = barycenter_denominator(system)
        self.barycenter_int = tuple(int(c * self.scale) for c in system.barycenter)
        assert all(Fraction(b, self.scale) == c
                   for b, c in zip(self.barycenter_int, system.barycenter))
        self.covectors = tuple(system.gram_image(r) for r in system.positive_roots)

        ident_mat = _identity_matrix(n)
        self.identity = GroupElement(self, ident_mat, (0,) * n)
        gens = [GroupElement(self, system.reflection_matrix(system.highest_root),
                             self.coroot_scaled(system.highest_root))]
        for i in range(n):
            gens.append(GroupElement(
                self, system.reflection_matrix(system.positive_roots[i]), (0,) * n))
        self.generators = tuple(gens)
        self.letters = tuple(range(n + 1))

    # ------------------------------------------------------------ structure

    def coroot_scaled(self, root: tuple[int, ...]) -> tuple[int, ...]:
        """Integer coordinates of the coroot of ``root``, scaled by the denominator."""
        nrm = self.system.norm(root)
        assert (2 * self.scale) % nrm == 0
        factor = 2 * self.scale // nrm
        return tuple(c * factor for c in root)

    def translation(self, coroot_coords: tuple[int, ...]) -> GroupElement:
        """The translation by an integer combination of simple coroots."""
        n = self.system.rank
        trans = [0] * n
        for i, m in enumerate(coroot_coords):
            for j, c in enumerate(self.coroot_scaled(self.system.positive_roots[i])):
                trans[j] += m * c
        return GroupElement(self, _identity_matrix(n), tuple(trans))

    def multiply(self, a: GroupElement, b: GroupElement) -> GroupElement:
        if a.group.system.cartan_type != b.group.system.cartan_type:
            raise ValueError("elements belong to different groups")
        mat = _mat_mul(a.mat, b.mat)
        trans = tuple(x + t for x, t in zip(_mat_vec(a.mat, b.trans), a.trans))
        return GroupElement(self, mat, trans)

    def shells(self):
        """Yield the shells of the ball around the identity, by length.

        Shell d lists the elements of length d in breadth-first order:
        each element of shell d-1 times each generator, first visits
        kept.  Duplicates are found by coefficient vector, and two
        elements with the same vector are checked to be equal.
        """
        shell = [self.identity]
        length = 0
        while True:
            yield shell
            length += 1
            found: dict[tuple[int, ...], GroupElement] = {}
            for w in shell:
                for gen in self.generators:
                    u = self.multiply(w, gen)
                    if u.length != length:
                        continue
                    known = found.setdefault(u.shi, u)
                    assert known is u or (known.mat == u.mat and known.trans == u.trans), \
                        "coefficient vectors must determine elements uniquely"
            shell = list(found.values())

    def inverse(self, a: GroupElement) -> GroupElement:
        frac = invert_fraction_matrix([[Fraction(x) for x in row] for row in a.mat])
        assert all(x.denominator == 1 for row in frac for x in row)
        inv_mat = tuple(tuple(int(x) for x in row) for row in frac)
        inv_trans = tuple(-x for x in _mat_vec(inv_mat, a.trans))
        return GroupElement(self, inv_mat, inv_trans)

    def simple_affine_root(self, letter: int) -> AffineRoot:
        """The affine simple root attached to a generator letter."""
        if letter == 0:
            return AffineRoot(tuple(-c for c in self.system.highest_root), 1)
        return AffineRoot(self.system.positive_roots[letter - 1], 0)

    # ------------------------------------------------------- alcove algebra

    def shi_coefficient(self, w: GroupElement, root: tuple[int, ...]) -> int:
        """k(w, root) for a finite root of either sign.

        On negative roots this follows the sign convention
        k(w, -alpha) = -k(w, alpha), not the raw floor.
        """
        root = tuple(root)
        idx = self.system.root_index.get(root)
        if idx is not None:
            return w.shi[idx]
        neg = tuple(-c for c in root)
        idx = self.system.root_index.get(neg)
        if idx is None:
            raise ValueError(f"{root} is not a root of {self.system.cartan_type.name}")
        return -w.shi[idx]

    def left_descents(self, w: GroupElement) -> frozenset[int]:
        out = set()
        if w.shi[self.system.highest_index] >= 1:
            out.add(0)
        for i in range(self.system.rank):
            if w.shi[i] <= -1:
                out.add(i + 1)
        return frozenset(out)

    def right_descents(self, w: GroupElement) -> frozenset[int]:
        length = w.length
        return frozenset(g for g in self.letters
                         if self.multiply(w, self.generators[g]).length < length)

    def word_from_element(self, w: GroupElement) -> tuple[int, ...]:
        """Reduced word, always stripping the least left descent first."""
        word = []
        current = w
        while current != self.identity:
            descents = self.left_descents(current)
            assert descents, "non-identity element must have a left descent"
            g = min(descents)
            shorter = self.multiply(self.generators[g], current)
            assert shorter.length == current.length - 1
            word.append(g)
            current = shorter
        return tuple(word)

    def element_from_word(self, word) -> GroupElement:
        out = self.identity
        for g in word:
            if g not in self.letters:
                raise ValueError(f"letter {g!r} outside the generator range 0..{len(self.letters) - 1}")
            out = self.multiply(out, self.generators[g])
        return out

    # ------------------------------------------------------- affine action

    def act_on_affine_root(self, w: GroupElement, beta: AffineRoot) -> AffineRoot:
        finite = _mat_vec(w.mat, beta.finite)
        pairing = sum(t * c for t, c in zip(w.trans, self.system.gram_image(finite)))
        assert pairing % self.scale == 0
        return AffineRoot(finite, beta.delta - pairing // self.scale)

    def reflection_of_affine_root(self, beta: AffineRoot) -> GroupElement:
        """The group element reflecting in the hyperplane of ``beta``."""
        if all(c >= 0 for c in beta.finite):
            base, sign = beta.finite, 1
        else:
            base, sign = tuple(-c for c in beta.finite), -1
        if not self.system.is_root(base):
            raise ValueError(f"finite part {beta.finite} is not a root")
        coroot = self.coroot_scaled(base)
        trans = tuple(-beta.delta * sign * c for c in coroot)
        return GroupElement(self, self.system.reflection_matrix(base), trans)

    # ------------------------------------------------------ inversion sets

    def inversion_set(self, w: GroupElement) -> frozenset[AffineRoot]:
        """N(w), read off the alcove coefficient vector."""
        out = []
        for idx, m in enumerate(w.shi):
            root = self.system.positive_roots[idx]
            if m >= 1:
                neg = tuple(-c for c in root)
                out.extend(AffineRoot(neg, j) for j in range(1, m + 1))
            elif m <= -1:
                out.extend(AffineRoot(root, j) for j in range(-m))
        return frozenset(out)

    def inversion_set_by_action(self, w: GroupElement) -> frozenset[AffineRoot]:
        """N(w) from the definition: positive roots sent negative by the inverse.

        Complete: beyond the computed delta window the inverse image level
        stays positive, so no member is missed.
        """
        w_inv = self.inverse(w)
        shifts = []
        for cov in self.covectors:
            pairing = sum(t * c for t, c in zip(w_inv.trans, cov))
            assert pairing % self.scale == 0
            shifts.append(abs(pairing // self.scale))
        window = max(shifts, default=0)
        out = []
        for root in self.system.positive_roots:
            neg = tuple(-c for c in root)
            for k in range(window + 1):
                beta = AffineRoot(root, k)
                if not self.act_on_affine_root(w_inv, beta).is_positive:
                    out.append(beta)
            for k in range(1, window + 1):
                beta = AffineRoot(neg, k)
                if not self.act_on_affine_root(w_inv, beta).is_positive:
                    out.append(beta)
        return frozenset(out)

    def basis_of_inversion_set(self, w: GroupElement) -> frozenset[AffineRoot]:
        """The members of N(w) whose reflection shortens w on the left."""
        length = w.length
        return frozenset(
            beta for beta in self.inversion_set(w)
            if self.multiply(self.reflection_of_affine_root(beta), w).length == length - 1)

    def left_descent_roots(self, w: GroupElement) -> frozenset[AffineRoot]:
        return frozenset(self.simple_affine_root(g) for g in self.left_descents(w))

    def right_descent_roots(self, w: GroupElement) -> frozenset[AffineRoot]:
        out = []
        for g in self.right_descents(w):
            image = self.act_on_affine_root(w, self.simple_affine_root(g))
            out.append(-image)
        return frozenset(out)

    # -------------------------------------------------------- finite part

    def finite_elements(self) -> list[GroupElement]:
        """All elements of the finite Weyl group (translation part zero)."""
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            current = frontier.pop()
            for g in self.letters[1:]:
                nxt = self.multiply(self.generators[g], current)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        out = sorted(seen, key=GroupElement.sort_key)
        assert len(out) == self.system.weyl_order
        return out

    def finite_inversion_set(self, w: GroupElement) -> frozenset[tuple[int, ...]]:
        """For finite w: the positive finite roots sent negative by the inverse."""
        assert w.trans == (0,) * self.system.rank
        inv = self.inverse(w)
        out = []
        for root in self.system.positive_roots:
            image = _mat_vec(inv.mat, root)
            if all(c <= 0 for c in image):
                out.append(root)
        return frozenset(out)

    # ------------------------------------------------------------- display

    def affine_root_name(self, beta: AffineRoot) -> str:
        if all(c >= 0 for c in beta.finite):
            base = tuple(beta.finite)
            finite_name = self._finite_name(base)
            if beta.delta == 0:
                return finite_name
            level = "d" if beta.delta == 1 else f"{beta.delta}d"
            return f"{level}+{finite_name}"
        base = tuple(-c for c in beta.finite)
        finite_name = self._finite_name(base)
        level = "d" if beta.delta == 1 else f"{beta.delta}d"
        return f"{level}-{finite_name}"

    def _finite_name(self, base: tuple[int, ...]) -> str:
        idx = self.system.root_index.get(base)
        name = self.system.root_name(idx) if idx is not None else str(base)
        return f"({name})" if "+" in name else name

    def element_json(self, w: GroupElement) -> dict:
        return {"word": list(self.word_from_element(w)), "shi": list(w.shi)}
