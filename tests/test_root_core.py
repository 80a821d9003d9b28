"""Finite root system construction: matrices, roots, invariants, posets."""
from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from shilow import CartanType, RootDataError, RootSystem, root_system
from shilow import rootdata
from shilow.rootdata import solve_two_unknowns

SRC = Path(__file__).resolve().parents[1] / "src"

# (family, rank) -> (positive root count, coxeter number, exponents,
#                    weyl order, catalan number)
_KNOWN = {
    ("A", 2): (3, 3, (1, 2), 6, 5),
    ("A", 3): (6, 4, (1, 2, 3), 24, 14),
    ("A", 4): (10, 5, (1, 2, 3, 4), 120, 42),
    ("B", 2): (4, 4, (1, 3), 8, 6),
    ("B", 3): (9, 6, (1, 3, 5), 48, 20),
    ("C", 3): (9, 6, (1, 3, 5), 48, 20),
    ("D", 4): (12, 6, (1, 3, 3, 5), 192, 50),
    ("F", 4): (24, 12, (1, 5, 7, 11), 1152, 105),
    ("G", 2): (6, 6, (1, 5), 12, 8),
    ("E", 6): (36, 12, (1, 4, 5, 7, 8, 11), 51840, 833),
}


@pytest.fixture(scope="module", params=sorted(_KNOWN),
                ids=lambda p: f"{p[0]}{p[1]}")
def system(request) -> RootSystem:
    return root_system(*request.param)


def test_invalid_types_rejected():
    with pytest.raises(ValueError):
        root_system("A", 0)
    with pytest.raises(ValueError):
        root_system("H", 3)
    with pytest.raises(ValueError):
        root_system("G", 3)
    with pytest.raises(ValueError):
        root_system("E", 9)
    with pytest.raises(ValueError):
        CartanType("A", "2")  # type: ignore[arg-type]
    for family in ("AB", ""):
        with pytest.raises(ValueError, match="unknown family"):
            CartanType(family, 2)


def test_records_compare_and_hash_by_value():
    """A ``CartanType`` keys the per-type rank-2 tables and is compared by
    ``multiply``, so equal fields make equal, alike-hashing records; a
    tuple of the same fields is not equal to one."""
    b3 = CartanType("B", 3)
    assert b3 == CartanType("B", 3) and hash(b3) == hash(CartanType("B", 3))
    assert {b3: 1}[CartanType("B", 3)] == 1
    assert b3 != CartanType("C", 3) and b3 != ("B", 3)
    first, second = root_system("B", 3), root_system("B", 3)
    assert first.poset_ideals() == second.poset_ideals()
    assert first.rank2_subsystems() == second.rank2_subsystems()
    assert len(set(first.poset_ideals())) == len(first.poset_ideals())
    assert rootdata.PosetIdeal((0,), (0,)) != rootdata.PosetIdeal((0,), ())


def test_cartan_matrix_shape(system):
    n = system.rank
    for i in range(n):
        assert system.cartan[i][i] == 2
        for j in range(n):
            if i != j:
                assert system.cartan[i][j] <= 0
                assert (system.cartan[i][j] == 0) == (system.cartan[j][i] == 0)


def test_symmetrizer_makes_gram_symmetric(system):
    n = system.rank
    assert min(system.symmetrizer) == 1
    for i in range(n):
        for j in range(n):
            assert system.gram[i][j] == system.gram[j][i]
            assert system.gram[i][j] == system.symmetrizer[i] * system.cartan[i][j]


def test_positive_root_count(system):
    expected = _KNOWN[(system.cartan_type.family, system.rank)][0]
    assert system.nroots == expected
    assert len(system.positive_roots) == expected
    assert len(system._all_roots) == 2 * expected


def test_root_order_simples_first_highest_last(system):
    n = system.rank
    for i in range(n):
        assert system.positive_roots[i] == tuple(
            1 if j == i else 0 for j in range(n))
    heights = system.heights
    assert list(heights) == sorted(heights)
    assert system.positive_roots[-1] == system.highest_root
    assert heights[-1] == max(heights)


def test_roots_closed_under_reflection(system):
    for alpha in system.positive_roots:
        assert system.reflect(alpha, alpha) == tuple(-c for c in alpha)
        for beta in system.positive_roots:
            image = system.reflect(alpha, beta)
            assert system.is_root(image)
            # involution
            assert system.reflect(alpha, image) == beta


def test_reflection_matrix_matches_reflect(system):
    for alpha in system.positive_roots[: system.rank + 2]:
        mat = system.reflection_matrix(alpha)
        for beta in system.positive_roots:
            image = tuple(
                sum(mat[r][c] * beta[c] for c in range(system.rank))
                for r in range(system.rank))
            assert image == system.reflect(alpha, beta)


def test_inner_product_invariant_under_reflection(system):
    roots = system.positive_roots
    for alpha in roots[: system.rank + 2]:
        for beta in roots:
            assert system.norm(system.reflect(alpha, beta)) == system.norm(beta)
            assert system.inner(alpha, beta) == system.inner(beta, alpha)


def test_coxeter_number_and_exponents(system):
    _, h, exponents, order, catalan = _KNOWN[
        (system.cartan_type.family, system.rank)]
    assert system.coxeter_number == h
    assert system.exponents == exponents
    assert system.weyl_order == order
    assert system.catalan_number == catalan
    assert system.region_count == (h + 1) ** system.rank
    # classical identities
    assert sum(exponents) == system.nroots
    assert math.prod(e + 1 for e in exponents) == order
    assert exponents[-1] == h - 1


def test_coweights_dual_to_simples(system):
    # The coweights are the columns of adj / det: adj's column i pairs to
    # det with alpha_i and to 0 with the other simples.
    adj, det = rootdata.integer_inverse(system.gram)
    n = system.rank
    for i in range(n):
        coweight = tuple(adj[r][i] for r in range(n))
        for j in range(n):
            pairing = system.inner(coweight, system.positive_roots[j])
            assert pairing == (det if i == j else 0)


def test_barycenter_strictly_inside_alcove(system):
    # every positive-root pairing lies strictly between the walls at 0 and
    # 1, which sit at 0 and ``scale`` for the scaled barycenter
    bary = system.barycenter_int
    for beta in system.positive_roots:
        value = system.inner(bary, beta)
        assert 0 < value < system.scale


# Every irreducible type up to rank 8.
_ALL_TYPES = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
              + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]
              + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def _fraction_inverse(rows):
    """Exact inverse by Gauss-Jordan elimination over ``Fraction``."""
    n = len(rows)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col])
        work[col], work[pivot] = work[pivot], work[col]
        work[col] = [x / work[col][col] for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


@pytest.mark.parametrize("family, rank", _ALL_TYPES,
                         ids=[f"{family}{rank}" for family, rank in _ALL_TYPES])
def test_integer_root_data_match_a_fraction_reference(family, rank):
    """The symmetrizer, the Catalan number, ``scale``, ``barycenter_int``
    and every interior pairing equal their values computed over
    ``Fraction``: the symmetrizer by walking the diagram, the barycenter
    as the mean of the alcove's vertices 0 and coweight_i / theta_i."""
    system = root_system(family, rank)
    n, cartan = system.rank, system.cartan
    d = [None] * n
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if i != j and cartan[i][j] and d[j] is None:
                d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                stack.append(j)
    assert system.symmetrizer == tuple(x / min(d) for x in d)
    catalan = math.prod(Fraction(system.coxeter_number + e + 1, e + 1)
                        for e in system.exponents)
    assert system.catalan_number == catalan
    inverse = _fraction_inverse(system.gram)
    high = system.highest_root
    barycenter = [sum(inverse[j][i] / high[i] for i in range(n)) / (n + 1)
                  for j in range(n)]
    scale = math.lcm(*(c.denominator for c in barycenter), *system.symmetrizer)
    assert system.scale == scale
    assert system.barycenter_int == tuple(c * scale for c in barycenter)
    for beta in system.positive_roots:
        pairing = sum(barycenter[i] * system.gram[i][j] * beta[j]
                      for i in range(n) for j in range(n))
        assert 0 < pairing < 1
        assert Fraction(system.inner(system.barycenter_int, beta), system.scale) == pairing


def test_poset_leq_is_componentwise_cover_chain(system):
    # i <= j in the root poset iff the difference is a nonnegative sum that
    # descends to i through roots; spot-check reflexivity, antisymmetry,
    # and compatibility with coordinates
    n = system.nroots
    for i in range(n):
        assert system.poset_leq(i, i)
        for j in range(n):
            if system.poset_leq(i, j):
                assert all(
                    a <= b for a, b in zip(system.positive_roots[i],
                                           system.positive_roots[j]))
                if system.poset_leq(j, i):
                    assert i == j


def test_ideal_count_matches_catalan(system):
    ideals = system.poset_ideals()
    assert len(ideals) == system.catalan_number
    seen = set()
    for item in ideals:
        assert item.ideal not in seen
        seen.add(item.ideal)
        members = frozenset(item.antichain)
        assert system.up_closure(members) == frozenset(item.ideal)
        # antichain members pairwise incomparable
        for i in item.antichain:
            for j in item.antichain:
                if i != j:
                    assert not system.poset_leq(i, j)


def test_rank2_subsystems_are_span_intersections(system):
    """Position k of a subsystem is the k-th positive root of the
    standalone system of its kind, written in the subsystem's first two
    roots: the correspondence the rank-2 admissibility tables rely on."""
    for sub in system.rank2_subsystems():
        assert sub.kind in {"A2", "B2", "G2"}
        expected_size = {"A2": 3, "B2": 4, "G2": 6}[sub.kind]
        assert len(sub.positions) == expected_size
        standalone = root_system(sub.kind[0], 2)
        s1, s2 = (system.positive_roots[p] for p in sub.positions[:2])
        for p, (a, b) in zip(sub.positions, standalone.positive_roots):
            combo = tuple(a * x + b * y for x, y in zip(s1, s2))
            assert system.positive_roots[p] == combo
        # span-intersection: membership is exactly rational-span membership
        member_set = set(sub.positions)
        for q, root in enumerate(system.positive_roots):
            in_span = solve_two_unknowns(s1, s2, root) is not None
            assert (q in member_set) == in_span


def test_root_sums_list_every_sum_of_two_positive_roots(system):
    roots = system.positive_roots
    expected = {(b, c, system.root_index[tuple(x + y for x, y in zip(roots[b], roots[c]))])
                for b in range(system.nroots) for c in range(b + 1, system.nroots)
                if system.is_root(tuple(x + y for x, y in zip(roots[b], roots[c])))}
    assert set(system.root_sums) == expected
    assert list(system.root_sums) == sorted(system.root_sums)
    assert root_system("B", 2).root_sums == ((0, 1, 2), (0, 2, 3))


def test_a_root_no_sum_reaches_raises_root_data_error(monkeypatch):
    system = root_system("A", 2)
    monkeypatch.setattr(system, "root_index", {(1, 0): 0, (0, 1): 1})
    with pytest.raises(RootDataError, match="do not reach every non-simple"):
        system.root_sums


@pytest.mark.parametrize("family", ["A", "B", "G"])
def test_alcove_vectors_are_the_solutions_of_shi_inequalities(family):
    """Squares 0..2 of the search hold each solution once, at its radius;
    on A2 and B2 they hold every solution, against a brute-force box
    (|k_t| <= height(t) * 3 bounds each coordinate of those squares)."""
    system = root_system(family, 2)
    squares = list(itertools.islice(system.alcove_vectors(), 3))
    for radius, vectors in enumerate(squares):
        assert len(set(vectors)) == len(vectors)
        for k in vectors:
            assert max(abs(k[0]), abs(k[1])) == radius
            assert all(k[b] + k[c] <= k[t] <= k[b] + k[c] + 1 for b, c, t in system.root_sums)
    if family != "G":
        box = [range(-3 * h, 3 * h + 1) for h in system.heights]
        box[:2] = [range(-2, 3)] * 2
        brute = {k for k in itertools.product(*box)
                 if all(k[b] + k[c] <= k[t] <= k[b] + k[c] + 1 for b, c, t in system.root_sums)}
        assert brute == {k for vectors in squares for k in vectors}


def test_root_names_and_json(system):
    assert system.root_name(0) == "a1"
    data = system.to_json_dict()
    assert data["rank"] == system.rank
    assert data["coxeter_number"] == system.coxeter_number
    assert len(data["positive_roots"]) == system.nroots
    assert data["region_count_formula"] == system.region_count


def test_a2_names_match_coordinates():
    system = root_system("A", 2)
    assert [system.root_name(i) for i in range(3)] == ["a1", "a2", "a1+a2"]
    b2 = root_system("B", 2)
    assert [b2.root_name(i) for i in range(4)] == [
        "a1", "a2", "a1+a2", "2a1+a2"]
    # B2: first simple root short
    assert b2.norm(b2.positive_roots[0]) < b2.norm(b2.positive_roots[1])
    g2 = root_system("G", 2)
    assert g2.norm(g2.positive_roots[0]) < g2.norm(g2.positive_roots[1])


# A diagram with no edge, and a triangle whose symmetrizer, read along a
# spanning tree, leaves the third edge asymmetric.
_BAD_CARTAN = {
    "disconnected": ([[2, 0], [0, 2]], "not connected"),
    "asymmetric": ([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]], "not symmetrizable"),
}


@pytest.mark.parametrize("case", sorted(_BAD_CARTAN))
def test_an_inconsistent_cartan_datum_raises_root_data_error(monkeypatch, case):
    cartan, message = _BAD_CARTAN[case]
    monkeypatch.setattr(rootdata, "_cartan_matrix", lambda family, n: cartan)
    with pytest.raises(RootDataError, match=message):
        root_system("A", len(cartan))


def test_a_non_integral_reflection_raises_root_data_error(monkeypatch):
    system = root_system("B", 2)
    monkeypatch.setattr(system, "gram", ((4, -2), (-2, 3)))
    with pytest.raises(RootDataError, match="off the lattice"):
        system.reflect((0, 1), (1, 0))
    with pytest.raises(RootDataError, match="not integral"):
        system.reflection_matrix((0, 1))


def test_a_corrupted_root_datum_raises_under_python_o():
    """The root datum's checks are explicit raises, so ``-O`` keeps them."""
    script = ("from shilow import RootDataError, rootdata\n"
              "rootdata._cartan_matrix = lambda family, n: [[2, 0], [0, 2]]\n"
              "try:\n"
              "    rootdata.root_system('A', 2)\n"
              "except RootDataError as exc:\n"
              "    print('RootDataError:', exc)\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC),
                                                       os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "RootDataError: Cartan diagram not connected\n"
