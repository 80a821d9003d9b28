"""Affine Weyl group elements, keyed by their Shi coefficient vectors.

An element is its alcove coefficient vector: the integer ``k(w, alpha)``
for each positive root ``alpha``, read at the image of the
fundamental-alcove barycenter.  The vector determines the element and
drives lengths, descents and inversion sets.

Left multiplication works on vectors alone.  For a reflection ``t`` with
finite part ``tbar``, Shi's recurrence reads
``k(t w, alpha) = k(w, tbar alpha) + k(t, alpha)`` (``tbar`` is its own
inverse; negative roots follow ``k(w, -alpha) = -k(w, alpha)``).  Since
``tbar`` permutes the roots up to sign, ``t`` acts on vectors as a signed
permutation plus an offset: a *left table*, one triple
``(index of +-tbar alpha, sign, k(t, alpha))`` per positive root.  The
group holds one table per generator and, for the reflection in any
affine root, builds one from the data of its finite root, whose offset
is linear in the delta level.  The tables come from root data alone and
are checked against the matrix action before they are read; a mismatch
raises ``KernelError``.  The n+1 generator tables are checked when the
group is built.  The reflection tables, at delta levels 0 and 1, are
checked on the first read of any reflection datum (``reflection_table``,
``reflect_left`` or ``reflected_lengths``), so a group that only walks
or multiplies checks its generator tables and nothing more.

The matrix action ``x -> U x + t`` (``U`` the finite part on simple-root
coordinates, ``t`` a coroot-lattice translation scaled by a fixed common
denominator, so everything stays integral) is kept as the oracle:
``from_matrix`` builds an element from it, ``matrix_multiply`` multiplies
through it, and an element's ``mat`` and ``trans`` are derived from its
reduced word on first read.

The left tables are interpreted data.  When a group first walks or
multiplies, it compiles them into straight-line closures, once per
group: ``apply[g]`` writes g's table out as one tuple expression,
``extend[g]`` adds the walk's descent tests as comparisons,
``reflected_lengths[i]`` sums the length of a reflected vector for
``lowness.is_low``, and ``sign_type`` writes out the sign tuple that the
scans key regions by.  The source is generated from tables already
checked against the matrix action, and holds only integers, each checked
once more before it is compiled; ``_left_apply`` stays the interpreted
reference.

``AffineWeylGroup.shells`` is the one walk of the group through the left
tables.  It carries bare Shi vectors and builds each once, from its
canonical parent: the left quotient that ``word_from_element`` strips
first.  Its ``keep`` predicate, which reads a vector, prunes it to a
subset closed under left quotients, such as the finite Weyl group or the
low elements.  A ``GroupElement`` is made only of what a caller returns.

Right descents are read off the Shi vector alone.  Shi's inequalities,
stated once in ``rootdata`` over the root sums ``RootSystem.root_sums``,
characterise the vectors of alcoves (Shi, J. London Math. Soc. 1987).
For k = k(w, alpha_i) != 0, the wall of the w-alcove on the hyperplane
of alpha_i nearest the fundamental alcove (level k when k >= 1, k + 1
when k <= -1) is a facet exactly when the vector with coordinate i moved
one step towards zero keeps every inequality that involves i: the two
alcoves are then separated by that hyperplane alone.  These facets are
the walls of the right descents g, and w * s_g differs from w only in
coordinate i.  ``facet_data`` lists, per positive root, the inequalities
that involve it, read off the root sums; like the reflection data, it is
built on first use.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul

from .rootdata import RootSystem, integer_inverse


class KernelError(RuntimeError):
    """The Shi-vector kernel disagrees with the matrix action, the
    integer data of the matrix action is not integral where it must be,
    or the small roots read off its signs are not inversions."""


def _mat_mul(a: tuple[tuple[int, ...], ...],
             b: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    columns = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in a)


def _mat_vec(m: tuple[tuple[int, ...], ...], v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in m)


def _identity_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(r == c) for c in range(n)) for r in range(n))


def _compose(a: tuple, b: tuple) -> tuple:
    """The action (mat, trans) of a product, from the actions of its factors."""
    a_mat, a_trans = a
    b_mat, b_trans = b
    return (_mat_mul(a_mat, b_mat),
            tuple(x + t for x, t in zip(_mat_vec(a_mat, b_trans), a_trans)))


def _left_apply(table: tuple, shi: tuple[int, ...]) -> tuple[int, ...]:
    """The coefficient vector of t*w, from t's left table and w's vector."""
    return tuple([s * shi[j] + o for j, s, o in table])


def _shifted(data: tuple, shift: int) -> tuple:
    """The left table of the reflection with reflection data ``data``
    (see ``AffineWeylGroup._reflection_data``) at ``shift`` delta levels:
    offsets o - shift * m."""
    pairs, base, slope = data
    return tuple((j, s, o - shift * m) for (j, s), o, m in zip(pairs, base, slope))


def _check_entry(what: str, size: int, j, s, *values) -> None:
    """Raise ``KernelError`` unless a table entry to compile holds an index
    0 <= j < size, a sign s = +-1 and integers, the only values that the
    generated source may contain."""
    if not (type(j) is int and 0 <= j < size and type(s) is int and s in (1, -1)
            and all(type(v) is int for v in values)):
        raise KernelError(f"{what}: entry {(j, s, *values)!r} is not an index "
                          f"below {size}, a sign and integers")


def _plus(value: int, factor: str = "") -> str:
    """Source of ``+ value * factor`` for a checked integer, empty at 0."""
    if not value:
        return ""
    magnitude = abs(value)
    if not factor:
        text = str(magnitude)
    else:
        text = factor if magnitude == 1 else f"{magnitude}*{factor}"
    return f" {'+' if value > 0 else '-'} {text}"


def _entry_source(what: str, size: int, entry) -> str:
    """Source of ``s * k[j] + o`` for a checked entry (j, s, o)."""
    _check_entry(what, size, *entry)
    j, s, o = entry
    return f"{'' if s == 1 else '-'}k[{j}]{_plus(o)}"


def _compile(sources: list[str], name: str) -> tuple:
    """The closures of ``sources``, lambda expressions that this module
    writes from checked integers alone; the one place that compiles code."""
    code = compile(f"({', '.join(sources)},)", f"<{name}>", "eval")
    return eval(code, {"__builtins__": {}, "abs": abs})


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
    """One affine Weyl group element, given by its coefficient vector
    ``shi``; immutable, hashable, totally ordered.

    ``mat`` and ``trans`` (scaled by the group's denominator) are the
    matrix action, derived on first read and then kept.
    """

    __slots__ = ("group", "shi", "_action")

    def __init__(self, group: AffineWeylGroup, shi: tuple[int, ...]):
        self.group = group
        self.shi = shi
        self._action: tuple | None = None

    def _matrix_action(self) -> tuple:
        if self._action is None:
            self._action = self.group._action_of(self)
        return self._action

    @property
    def mat(self) -> tuple[tuple[int, ...], ...]:
        return self._matrix_action()[0]

    @property
    def trans(self) -> tuple[int, ...]:
        return self._matrix_action()[1]

    @property
    def point(self) -> tuple[int, ...]:
        """Image of the fundamental-alcove barycenter under the matrix action."""
        return tuple(p + t for p, t in
                     zip(_mat_vec(self.mat, self.group.barycenter_int), self.trans))

    @property
    def length(self) -> int:
        return sum(map(abs, self.shi))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GroupElement) and self.shi == other.shi
                and (self.group is other.group
                     or self.group.system.cartan_type == other.group.system.cartan_type))

    def __hash__(self) -> int:
        return hash(self.shi)

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


class AffineWeylGroup:
    """The affine Weyl group of a finite irreducible root system.

    Generators are indexed 0..n: index 0 is the affine reflection through
    the level-one hyperplane of the highest root, indices 1..n are the
    finite simple reflections in diagram order.  ``left_tables[g]`` is
    the left table of generator g; ``apply``, ``extend``,
    ``reflected_lengths`` and ``sign_type`` are the closures compiled on
    first use.
    """

    def __init__(self, system: RootSystem):
        self.system = system
        n = system.rank
        self.scale = system.scale
        self.barycenter_int = system.barycenter_int
        self.covectors = tuple(system.gram_image(r) for r in system.positive_roots)
        self.identity = GroupElement(self, (0,) * system.nroots)
        self.identity._action = (_identity_matrix(n), (0,) * n)
        self.letters = tuple(range(n + 1))
        self.negative_roots = tuple(tuple(-c for c in r) for r in system.positive_roots)

        simple = [self.simple_affine_root(g) for g in self.letters]
        self.generators = tuple(self.reflection_of_affine_root(b) for b in simple)
        # s0 reflects in (-theta, 1), the table of theta at shift -1; s_i in
        # (alpha_i, 0), the table of alpha_i at shift 0.
        self.left_tables = ((_shifted(self._reflection_data(system.highest_root), -1),)
                            + tuple(_shifted(self._reflection_data(root), 0)
                                    for root in system.positive_roots[:n]))
        for gen, table in zip(self.generators, self.left_tables):
            self.check_left_table(gen, table)
        # (letter, position, sign, left table, earlier) per letter, in letter
        # order: g is a left descent of w exactly when sign * w.shi[position]
        # <= -1, and entry (j, s, o) of earlier reads the coordinate of
        # s_g * w that tests an earlier letter h, so h is a left descent of
        # s_g * w exactly when s * w.shi[j] + o <= -1.
        tests = ((0, system.highest_index, -1),) + tuple((i + 1, i, 1) for i in range(n))
        self._letter_steps = tuple(
            (g, index, sign, table,
             tuple((table[i][0], h_sign * table[i][1], h_sign * table[i][2])
                   for _, i, h_sign in tests[:g]))
            for (g, index, sign), table in zip(tests, self.left_tables))

    # ------------------------------------------------------------ structure

    def coroot_scaled(self, root: tuple[int, ...]) -> tuple[int, ...]:
        """Integer coordinates of the coroot of ``root``, scaled by the denominator."""
        nrm = self.system.norm(root)
        if (2 * self.scale) % nrm:
            raise KernelError(f"the coroot of {root} is not integral at the "
                              f"denominator {self.scale}")
        factor = 2 * self.scale // nrm
        return tuple(c * factor for c in root)

    def from_matrix(self, mat: tuple[tuple[int, ...], ...],
                    trans: tuple[int, ...]) -> GroupElement:
        """The element acting as ``x -> mat x + trans``, its coefficient
        vector read off the matrix action (the oracle constructor)."""
        point = tuple(p + t for p, t in zip(_mat_vec(mat, self.barycenter_int), trans))
        w = GroupElement(self, tuple(
            sum(map(mul, point, cov)) // self.scale  # exact floor
            for cov in self.covectors))
        w._action = (mat, trans)
        return w

    def translation(self, coroot_coords: tuple[int, ...]) -> GroupElement:
        """The translation by an integer combination of simple coroots."""
        n = self.system.rank
        trans = [0] * n
        for i, m in enumerate(coroot_coords):
            for j, c in enumerate(self.coroot_scaled(self.system.positive_roots[i])):
                trans[j] += m * c
        return self.from_matrix(_identity_matrix(n), tuple(trans))

    def _action_of(self, w: GroupElement) -> tuple:
        """The matrix action of w: the product over its reduced word."""
        action = self.identity._matrix_action()
        for g in self.word_from_element(w):
            action = _compose(action, self.generators[g]._matrix_action())
        return action

    def matrix_multiply(self, a: GroupElement, b: GroupElement) -> GroupElement:
        """The product a*b through the matrix action (the oracle)."""
        if a.group.system.cartan_type != b.group.system.cartan_type:
            raise ValueError("elements belong to different groups")
        return self.from_matrix(*_compose(a._matrix_action(), b._matrix_action()))

    def inverse(self, a: GroupElement) -> GroupElement:
        """The inverse through the matrix action (the oracle)."""
        adj, det = integer_inverse(a.mat)
        if any(x % det for row in adj for x in row):
            raise KernelError(f"the finite part of {a.shi} has a non-integral inverse")
        inv_mat = tuple(tuple(x // det for x in row) for row in adj)
        inv_trans = tuple(-x for x in _mat_vec(inv_mat, a.trans))
        return self.from_matrix(inv_mat, inv_trans)

    def simple_affine_root(self, letter: int) -> AffineRoot:
        """The affine simple root attached to a generator letter."""
        if letter == 0:
            return AffineRoot(tuple(-c for c in self.system.highest_root), 1)
        return AffineRoot(self.system.positive_roots[letter - 1], 0)

    # ------------------------------------------------------- the left kernel

    @cached_property
    def reflection_data(self) -> tuple:
        """(pairs, base, slope) per positive root, see ``_reflection_data``;
        built on first use and not yet checked (``_checked_reflection_data``
        is)."""
        return tuple(self._reflection_data(r) for r in self.system.positive_roots)

    @cached_property
    def _checked_reflection_data(self) -> tuple:
        """``reflection_data``, once the table of every positive root at
        delta levels 0 and 1 agrees with the matrix action; an offset is
        linear in the delta level, in the tables and in the matrix action
        alike, so agreement at two levels covers all.  Every reader of
        reflection data reads it through here, so the 2N checks run once,
        on the first read."""
        data = self.reflection_data
        for root, entry in zip(self.system.positive_roots, data):
            for level in (0, 1):
                self.check_left_table(self.reflection_of_affine_root(AffineRoot(root, level)),
                                      _shifted(entry, level))
        return data

    @cached_property
    def facet_data(self) -> tuple:
        """The Shi inequalities that involve each positive root i, read off
        ``RootSystem.root_sums`` on first use (by ``is_facet``): its splits,
        the index pairs (b, c), b < c, with alpha_i = alpha_b + alpha_c,
        and its joins, the pairs (b, c) with alpha_i + alpha_b = alpha_c,
        each in order of b."""
        splits: list[list[tuple[int, int]]] = [[] for _ in self.system.positive_roots]
        joins: list[list[tuple[int, int]]] = [[] for _ in self.system.positive_roots]
        for b, c, t in self.system.root_sums:
            splits[t].append((b, c))
            joins[b].append((c, t))
            joins[c].append((b, t))
        return tuple((tuple(split), tuple(sorted(join))) for split, join in zip(splits, joins))

    def _reflection_data(self, root: tuple[int, ...]) -> tuple:
        """Root data of the reflections with finite root ``root``.

        Returns the signed permutation (j, s) with s_root(alpha_i) =
        s * alpha_j, the level-zero offsets and their slope per delta
        level.  At level zero, k(s_root, alpha) is floor of <b, s_root
        alpha> for the barycenter b, which pairs inside (0, 1) with every
        positive root: 0 or -1 by the sign of the image.  A level-m
        reflection adds the translation by -m coroot(root), which adds
        -m <coroot(root), alpha> to each offset.
        """
        system = self.system
        covector = system.gram_image(root)
        norm = sum(map(mul, covector, root))
        pairs, base, slope = [], [], []
        for alpha in system.positive_roots:
            pairing = 2 * sum(map(mul, covector, alpha)) // norm  # <coroot(root), alpha>
            image = tuple(a - pairing * r for a, r in zip(alpha, root))
            j = system.root_index.get(image)
            if j is None:
                j = system.root_index[tuple(-c for c in image)]
                pairs.append((j, -1))
                base.append(-1)
            else:
                pairs.append((j, 1))
                base.append(0)
            slope.append(pairing)
        return tuple(pairs), tuple(base), tuple(slope)

    def reflection_table(self, beta: AffineRoot) -> tuple:
        """The left table of the reflection in the affine root ``beta``."""
        finite = tuple(beta.finite)
        index = self.system.root_index.get(finite)
        if index is not None:
            shift = beta.delta
        else:
            index = self.system.root_index.get(tuple(-c for c in finite))
            if index is None:
                raise ValueError(f"finite part {beta.finite} is not a root")
            shift = -beta.delta
        return _shifted(self._checked_reflection_data[index], shift)

    def check_left_table(self, t: GroupElement, table) -> None:
        """Raise ``KernelError`` unless ``table`` is the left table of ``t``
        under the matrix action: entry i must name the root s * alpha_j
        that t's finite part sends to alpha_i, and the offset k(t, alpha_i)
        read from the matrix action.  The message names t by its
        coefficients, not its word: the tables that spell a word may be
        the ones under test."""
        roots, negatives = self.system.positive_roots, self.negative_roots
        mat, shi = t.mat, t.shi
        what = f"left table of the element with coefficients {shi}"
        if len(table) != len(roots):
            raise KernelError(f"{what} has {len(table)} entries, "
                              f"not one per positive root ({len(roots)})")
        for i, (j, s, o) in enumerate(table):
            if s not in (1, -1) or not 0 <= j < len(roots):
                raise KernelError(f"{what}, root {i}: image {s} * root {j} is not a root")
            if _mat_vec(mat, roots[j] if s == 1 else negatives[j]) != roots[i]:
                raise KernelError(f"{what}, root {i}: image {s} * root {j} "
                                  "disagrees with the matrix action")
            if o != shi[i]:
                raise KernelError(f"{what}, root {i}: offset {o}, matrix action {shi[i]}")

    # The closures below are compiled on first use, not in ``__init__``: a
    # group that never walks or multiplies compiles nothing.  Their source
    # holds only integers: coordinate indices, and table entries that
    # ``_check_entry`` passed.

    @cached_property
    def apply(self) -> tuple:
        """``apply[g](k)``: the vector of s_g * w, for w with vector k, as
        one tuple expression per letter written out from ``left_tables``."""
        size = self.system.nroots
        return _compile([
            "lambda k: (" + ", ".join(_entry_source(f"left table of s{g}", size, entry)
                                      for entry in table) + ",)"
            for g, table in enumerate(self.left_tables)], "left tables")

    @cached_property
    def extend(self) -> tuple:
        """``extend[g](k)``: the vector of s_g * w when g extends w
        canonically, else ``None``: g is not a left descent of w and no
        earlier letter is a left descent of s_g * w, each test one
        comparison read off ``_letter_steps`` (see ``shells``)."""
        size = self.system.nroots
        sources = []
        for g, index, sign, table, earlier in self._letter_steps:
            what = f"step of s{g}"
            tests = ((index, sign, 0),) + earlier
            for entry in tests:
                _check_entry(what, size, *entry)
            # s * k[j] + o < 0, with the sign moved to the bound
            fails = " or ".join(f"k[{j}] < {-o}" if s == 1 else f"k[{j}] > {o}"
                                for j, s, o in tests)
            image = ", ".join(_entry_source(what, size, entry) for entry in table)
            sources.append(f"lambda k: None if {fails} else ({image},)")
        return _compile(sources, "letter steps")

    @cached_property
    def reflected_lengths(self) -> tuple:
        """``reflected_lengths[i](k, t)``: the length of s_beta * w, for w
        with vector k and the affine root beta of finite part alpha_i whose
        table has offsets o - t * m (``reflection_table`` at shift t):
        sum |s k_j + o - t m| = sum |k_j + s o - s m t| over
        ``reflection_data[i]``, one sum per positive root."""
        size = self.system.nroots
        sources = []
        for i, (pairs, base, slope) in enumerate(self._checked_reflection_data):
            terms = []
            for (j, s), o, m in zip(pairs, base, slope):
                _check_entry(f"reflection data of root {i}", size, j, s, o, m)
                terms.append(f"abs(k[{j}]{_plus(s * o)}{_plus(-s * m, 't')})")
            sources.append("lambda k, t: " + " + ".join(terms))
        return _compile(sources, "reflection data")

    @cached_property
    def sign_type(self):
        """``sign_type(k)``: the sign tuple of the vector k, one
        ``(k_i > 0) - (k_i < 0)`` per coordinate (``lowness.sign_of_shi``)."""
        signs = ", ".join(f"(k[{i}] > 0) - (k[{i}] < 0)" for i in range(self.system.nroots))
        return _compile([f"lambda k: ({signs},)"], "sign type")[0]

    def left_multiply(self, letter: int, w: GroupElement) -> GroupElement:
        """s_letter * w, by the generator's left table."""
        return GroupElement(self, self.apply[letter](w.shi))

    def reflect_left(self, beta: AffineRoot, w: GroupElement) -> GroupElement:
        """s_beta * w, by the reflection table of ``beta``."""
        return GroupElement(self, _left_apply(self.reflection_table(beta), w.shi))

    def _word_shi(self, word, shi: tuple[int, ...]) -> tuple[int, ...]:
        """The vector of s_word * v for the element v with vector ``shi``."""
        apply = self.apply
        for g in reversed(word):
            shi = apply[g](shi)
        return shi

    def multiply(self, a: GroupElement, b: GroupElement) -> GroupElement:
        """a*b: the letters of a's reduced word applied on the left of b."""
        if a.group.system.cartan_type != b.group.system.cartan_type:
            raise ValueError("elements belong to different groups")
        return GroupElement(self, self._word_shi(self.word_from_element(a), b.shi))

    def shells(self, keep=None):
        """Yield the shells of the ball around the identity, by length, as
        lists of bare Shi vectors (tuples); callers make a ``GroupElement``
        only of the vectors they return.

        Shell d lists the vectors of the elements of length d, each built
        once, from its canonical parent in shell d-1.  An element w of
        shell d-1 is extended on the left by a letter g when g is not a
        left descent of w, which adds one to the length, and no letter
        before g is a left descent of s_g * w, read off g's left table
        before the vector is built (``extend[g]``).  Then g is the least
        left descent of s_g * w, so w is the left quotient that
        ``word_from_element`` strips first.  With ``keep``, a shell holds
        only the vectors that ``keep`` accepts, and only those are
        extended; a canonical parent is a left quotient, so a kept set
        closed under left quotients is walked completely.  The walk ends
        after its last non-empty shell.
        """
        extend = self.extend
        shell = [self.identity.shi]
        while shell:
            yield shell
            children = [child for shi in shell for step in extend
                        if (child := step(shi)) is not None]
            shell = children if keep is None else [shi for shi in children if keep(shi)]

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

    def _descents(self, shi: tuple[int, ...]) -> frozenset[int]:
        return frozenset(g for g, index, sign, _, _ in self._letter_steps
                         if sign * shi[index] <= -1)

    def left_descents(self, w: GroupElement) -> frozenset[int]:
        return self._descents(w.shi)

    def is_facet(self, shi: tuple[int, ...], i: int) -> bool:
        """Whether the wall on the hyperplane of alpha_i nearest the
        fundamental alcove is a facet of the alcove with vector ``shi``,
        for shi[i] != 0: coordinate i moved one step towards zero keeps
        0 <= k_i - k_b - k_c <= 1 for each split and 0 <= k_c - k_i - k_b
        <= 1 for each join in ``facet_data[i]``."""
        k = shi[i] - 1 if shi[i] > 0 else shi[i] + 1
        splits, joins = self.facet_data[i]
        for b, c in splits:
            if not 0 <= k - shi[b] - shi[c] <= 1:
                return False
        for b, c in joins:
            if not 0 <= shi[c] - k - shi[b] <= 1:
                return False
        return True

    def right_descents(self, w: GroupElement) -> frozenset[int]:
        """The left descents of w^-1, whose vector is w's reduced word
        applied on the left of the identity (an oracle: it reads the word)."""
        word = self.word_from_element(w)
        return self._descents(self._word_shi(word[::-1], self.identity.shi))

    def word_from_element(self, w: GroupElement) -> tuple[int, ...]:
        """Reduced word, always stripping the least left descent first."""
        word = []
        shi, length = w.shi, w.length
        while length:
            for g, index, sign, _, _ in self._letter_steps:
                if sign * shi[index] <= -1:
                    break
            else:
                raise KernelError(f"coefficients {w.shi}: a vector of length "
                                  f"{length} on the way has no left descent")
            shi = self.apply[g](shi)
            length -= 1
            if sum(map(abs, shi)) != length:
                raise KernelError(f"coefficients {w.shi}: stripping s{g} does "
                                  "not shorten by one")
            word.append(g)
        return tuple(word)

    def element_from_word(self, word) -> GroupElement:
        for g in word:
            if g not in self.letters:
                raise ValueError(f"letter {g!r} outside the generator range 0..{len(self.letters) - 1}")
        return GroupElement(self, self._word_shi(tuple(word), self.identity.shi))

    # ------------------------------------------------------- affine action

    def act_on_affine_root(self, w: GroupElement, beta: AffineRoot) -> AffineRoot:
        finite = _mat_vec(w.mat, beta.finite)
        pairing = sum(t * c for t, c in zip(w.trans, self.system.gram_image(finite)))
        if pairing % self.scale:
            raise KernelError(f"coefficients {w.shi}: the translation pairs with "
                              f"{finite} off the delta lattice")
        return AffineRoot(finite, beta.delta - pairing // self.scale)

    def reflection_of_affine_root(self, beta: AffineRoot) -> GroupElement:
        """The group element reflecting in the hyperplane of ``beta``,
        built from the matrix action."""
        if all(c >= 0 for c in beta.finite):
            base, sign = beta.finite, 1
        else:
            base, sign = tuple(-c for c in beta.finite), -1
        if not self.system.is_root(base):
            raise ValueError(f"finite part {beta.finite} is not a root")
        coroot = self.coroot_scaled(base)
        trans = tuple(-beta.delta * sign * c for c in coroot)
        return self.from_matrix(self.system.reflection_matrix(base), trans)

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
            if pairing % self.scale:
                raise KernelError(f"coefficients {w_inv.shi}: the translation pairs "
                                  "with a positive root off the delta lattice")
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
            if self.reflect_left(beta, w).length == length - 1)

    def right_descent_roots(self, w: GroupElement) -> frozenset[AffineRoot]:
        """-w(alpha_g) for each right descent g, one per facet of the
        w-alcove towards the fundamental alcove: the root (-alpha_i, k) when
        k >= 1, (alpha_i, -k-1) when k <= -1, for k = k(w, alpha_i)."""
        shi = w.shi
        roots = self.system.positive_roots
        return frozenset(AffineRoot(self.negative_roots[i], k) if k > 0
                         else AffineRoot(roots[i], -k - 1)
                         for i, k in enumerate(shi) if k and self.is_facet(shi, i))

    def right_descent_roots_by_action(self, w: GroupElement) -> frozenset[AffineRoot]:
        """The oracle for ``right_descent_roots``: each root -w(alpha_g)
        through the matrix action, for the right descents g read off w's
        reduced word."""
        return frozenset(-self.act_on_affine_root(w, self.simple_affine_root(g))
                         for g in self.right_descents(w))

    # -------------------------------------------------------- finite part

    def finite_elements(self) -> list[GroupElement]:
        """All elements of the finite Weyl group (translation part zero).

        s0 is never a left descent in W0 and always one of s0 * w, so the
        walk pruned to elements without it is W0; only a faulty table can
        take it past the Weyl group order, where it is cut."""
        order = self.system.weyl_order
        found: list[tuple[int, ...]] = []
        for shell in self.shells(keep=lambda shi: 0 not in self._descents(shi)):
            found.extend(shell)
            if len(found) > order:
                break
        if len(found) != order:
            raise KernelError(f"the finite walk reached {len(found)} elements, "
                              f"not the Weyl group order {order}")
        return sorted((GroupElement(self, shi) for shi in found), key=GroupElement.sort_key)

    def finite_inversion_set(self, w: GroupElement) -> frozenset[tuple[int, ...]]:
        """For finite w: the positive finite roots sent negative by the inverse."""
        if any(w.trans):
            raise ValueError(f"coefficients {w.shi}: not an element of the finite "
                             "Weyl group")
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
