"""Affine Weyl group arithmetic: words, lengths, coefficients, inversions."""
from __future__ import annotations

import itertools

import pytest

from shilow import AffineRoot, AffineWeylGroup, GroupElement, root_system


def _ball(ctx, radius: int):
    return [GroupElement(ctx.group, shi) for shi in ctx.ball(radius)]


def test_generators_are_involutions(desk):
    group = desk.group
    for gen in group.generators:
        assert gen != group.identity
        assert group.multiply(gen, gen) == group.identity
        assert gen.length == 1


def test_identity_has_zero_coefficients(desk):
    group = desk.group
    assert all(k == 0 for k in group.identity.shi)
    assert group.identity.length == 0
    assert group.word_from_element(group.identity) == ()


def test_word_round_trip(desk):
    group = desk.group
    for w in _ball(desk, 4):
        word = group.word_from_element(w)
        assert len(word) == w.length
        assert group.element_from_word(word) == w


def test_multiplication_matches_word_concatenation(desk):
    group = desk.group
    letters = range(len(group.generators))
    for u_word in itertools.product(letters, repeat=2):
        for v_word in itertools.product(letters, repeat=2):
            u = group.element_from_word(u_word)
            v = group.element_from_word(v_word)
            assert group.multiply(u, v) == group.element_from_word(
                tuple(u_word) + tuple(v_word))


def test_inverse(desk):
    group = desk.group
    for w in _ball(desk, 4):
        inv = group.inverse(w)
        assert group.multiply(w, inv) == group.identity
        assert group.multiply(inv, w) == group.identity
        assert inv.length == w.length
        # the reversed word spells the inverse (possibly a different
        # reduced word than the canonical one)
        assert group.element_from_word(tuple(
            reversed(group.word_from_element(w)))) == inv


def test_operator_sugar_matches_group_methods(desk):
    group = desk.group
    a = group.generators[0]
    b = group.generators[1]
    assert a * b == group.multiply(a, b)
    assert (a * b).inverse() == group.inverse(group.multiply(a, b))


def test_length_equals_inversion_count_and_coefficient_sum(desk):
    group = desk.group
    for w in _ball(desk, 4):
        inv = group.inversion_set(w)
        assert w.length == len(inv)
        assert w.length == sum(abs(k) for k in w.shi)


def test_coefficient_negation_convention(desk):
    group = desk.group
    for w in _ball(desk, 3):
        for root in desk.system.positive_roots:
            negated = tuple(-c for c in root)
            assert group.shi_coefficient(w, negated) == -group.shi_coefficient(
                w, root)


def test_shi_vector_matches_coefficient_function(desk):
    group = desk.group
    for w in _ball(desk, 3):
        for i, root in enumerate(desk.system.positive_roots):
            assert w.shi[i] == group.shi_coefficient(w, root)


def test_letter_zero_is_affine_reflection_of_highest_root(desk):
    group = desk.group
    system = desk.system
    zero = group.generators[0]
    assert group.simple_affine_root(0) == AffineRoot(
        tuple(-c for c in system.highest_root), 1)
    # its single inversion is delta - highest root
    assert group.inversion_set(zero) == frozenset(
        {AffineRoot(tuple(-c for c in system.highest_root), 1)})
    for letter in range(1, system.rank + 1):
        alpha = system.positive_roots[letter - 1]
        assert group.simple_affine_root(letter) == AffineRoot(alpha, 0)


def test_descents_match_length_change(desk):
    group = desk.group
    for w in _ball(desk, 4):
        left = frozenset(
            g for g, gen in enumerate(group.generators)
            if group.multiply(gen, w).length < w.length)
        right = frozenset(
            g for g, gen in enumerate(group.generators)
            if group.multiply(w, gen).length < w.length)
        assert group.left_descents(w) == left
        assert group.right_descents(w) == right


def test_descent_roots_are_inversions(desk):
    group = desk.group
    for w in _ball(desk, 4):
        inv = group.inversion_set(w)
        left_roots = {group.simple_affine_root(g) for g in group.left_descents(w)}
        assert left_roots <= inv
        for beta in left_roots:
            refl = group.reflection_of_affine_root(beta)
            assert group.multiply(refl, w).length < w.length


def test_action_preserves_root_structure(desk):
    group = desk.group
    system = desk.system
    betas = [AffineRoot(root, d)
             for root in system.positive_roots for d in (0, 1)]
    for w in _ball(desk, 3):
        images = {group.act_on_affine_root(w, beta) for beta in betas}
        assert len(images) == len(betas)
        # linearity over the delta level: w(beta + delta) = w(beta) + delta
        for root in system.positive_roots:
            base = group.act_on_affine_root(w, AffineRoot(root, 0))
            lifted = group.act_on_affine_root(w, AffineRoot(root, 1))
            assert lifted == AffineRoot(base.finite, base.delta + 1)


def test_reflection_of_affine_root_fixes_defining_wall(desk):
    group = desk.group
    system = desk.system
    for root in system.positive_roots:
        for d in (0, 1, 2):
            beta = AffineRoot(root, d)
            refl = group.reflection_of_affine_root(beta)
            assert group.multiply(refl, refl) == group.identity
            assert group.act_on_affine_root(refl, beta) == -beta


def test_inversion_sets_by_both_methods_agree(desk):
    group = desk.group
    for w in _ball(desk, 4):
        assert group.inversion_set(w) == group.inversion_set_by_action(w)


def test_inversion_set_of_inverse_is_image(desk):
    group = desk.group
    for w in _ball(desk, 3):
        inv = group.inverse(w)
        expected = frozenset(
            -group.act_on_affine_root(inv, beta)
            for beta in group.inversion_set(w))
        assert group.inversion_set(inv) == expected


def test_finite_elements_enumerate_weyl_group(desk):
    group = desk.group
    finite = group.finite_elements()
    assert len(finite) == desk.system.weyl_order
    assert group.identity in finite
    for w in finite:
        assert all(beta.delta == 0 for beta in group.inversion_set(w))


def test_finite_inversion_sets_are_root_subsets(desk):
    group = desk.group
    system = desk.system
    longest = max(group.finite_elements(), key=lambda w: w.length)
    assert longest.length == system.nroots
    assert group.finite_inversion_set(longest) == frozenset(
        system.positive_roots)
    with pytest.raises(ValueError, match="not an element of the finite Weyl group"):
        group.finite_inversion_set(group.generators[0])


def _translation(group: AffineWeylGroup, coroot_coords: tuple[int, ...]) -> GroupElement:
    """The translation by an integer combination of simple coroots, built
    from its matrix action."""
    n = group.system.rank
    trans = [0] * n
    for i, m in enumerate(coroot_coords):
        for j, c in enumerate(group.coroot_scaled(group.system.positive_roots[i])):
            trans[j] += m * c
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return group.from_matrix(identity, tuple(trans))


def test_translation_by_coroot(desk):
    group = desk.group
    system = desk.system
    theta = system.highest_root
    t = _translation(group, group.coroot_scaled(theta))
    # the translation is length-additive with itself and never shortens
    assert t.length > 0
    assert group.multiply(t, t).length == 2 * t.length


def test_affine_root_names(desk):
    group = desk.group
    system = desk.system
    alpha = system.positive_roots[0]
    assert group.affine_root_name(AffineRoot(alpha, 0)) == "a1"
    assert group.affine_root_name(
        AffineRoot(tuple(-c for c in alpha), 1)) == "d-a1"
    assert group.affine_root_name(AffineRoot(alpha, 1)) == "d+a1"


def test_element_json_round_trip(desk):
    group = desk.group
    for w in _ball(desk, 3):
        data = group.element_json(w)
        assert group.element_from_word(tuple(data["word"])) == w
        assert tuple(data["shi"]) == w.shi
