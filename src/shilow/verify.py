"""Verification suites tying the independent computation paths together.

Five suites, each returning a structured pass/fail report:

* ``main-theorem``   -- four-way count agreement (low elements, region
  minima, automaton states, admissible sign types), the set equality of
  low elements and region minima, dominant/ideal/Catalan agreement, and
  the closed-form inversion sets of dominant minimal elements.
* ``descent-walls``  -- the descent-wall equality ND_R(min) = descent
  roots of the region, wall-crossing transforms, and the minimality
  characterisation by descent walls, over the region members in the
  scanned ball (``RegionTable.members``, the suite's one extra walk).
* ``recurrences``    -- exhaustive sweeps of the coefficient recurrences
  (the kernel's vectors against products taken through the matrix
  action), inversion-set transition rules, and the two lowness oracles.
* ``automaton``      -- state counts, exhaustive reduced-word verdicts
  against the length oracle (walked over (element, state) pairs through
  the matrix action; the pairs decide every word's verdict), growth
  counts against the kernel's shells and Bott's series, and
  serialization round trips.
* ``tables``         -- conformance fixtures: transcribed wall-crossing
  row catalogs for the two smallest affine types (root-position layout
  inferred by the harness and recorded in the report), worked single
  regions, alcove coefficient vectors, and one rank-4 admissibility
  pair.  Where a transcribed value is internally inconsistent, the
  harness reports the oracle-computed value next to the transcription
  instead of silently correcting either.

All suites of one type share a ``DeskContext``, cached per type and
budget; its scan, low set, region table and automaton are built on first
read, and its ball is sliced from one walk of ``AffineWeylGroup.shells()``.
A check over many items goes through ``_check_each``, which records the
first failing item as the counterexample; a ``KernelError``, a cone
``CertificateError`` or an enumeration's ``CertificationError`` raised on
an item, or while the items are built, fails the check too, and so does
a check that examined no item.
Sign-type reflection, the small-root codec and the shell walk are the
library's own (``signtypes.reflect_sign_type``, ``SmallRoots``,
``AffineWeylGroup.shells``); the suites do not re-derive them.
"""

from __future__ import annotations

import os
import random
from functools import cached_property, partial

from . import automaton as automata
from . import regions as regionlib
from . import signtypes
from .elements import (AffineRoot, AffineWeylGroup, GroupElement, KernelError,
                       word_text)
from .lowness import (DEFAULT_BUDGET, BudgetExceededError, CertificationError,
                      ScanResult, SmallRoots, certified_scan,
                      cone_window_members, enumerate_low, is_low,
                      is_low_by_cone, right_descent_within_sign_type,
                      sign_of_shi)
from .ratlp import CertificateError
from .report import Report
from .rootdata import RootSystem, root_system

SUITES = ("main-theorem", "descent-walls", "recurrences", "automaton", "tables")
DESK_TYPES = (("A", 2), ("B", 2), ("G", 2), ("A", 3))

_SWEEP_BOUNDS = {2: 10, 3: 8, 4: 6}
_WORD_BOUNDS = {2: 10, 3: 7, 4: 5}

BUDGET_ENV_VAR = "SHILOW_BUDGET"


def resolve_budget(budget: int | None = None) -> int:
    """Explicit argument, then the environment override, then the default;
    a budget below 1 from either source raises ``ValueError``."""
    if budget is not None:
        if budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ValueError(f"{BUDGET_ENV_VAR} must be an integer") from exc
        if value <= 0:
            raise ValueError(f"{BUDGET_ENV_VAR} must be positive")
        return value
    return DEFAULT_BUDGET


class DeskContext:
    """Exact data for one affine type and budget; each part is built on
    its first read, so a suite pays only for what it uses."""

    def __init__(self, system: RootSystem, budget: int):
        self.system = system
        self.budget = budget
        self.group = AffineWeylGroup(system)
        self._walk = None
        self._shells: list[list[GroupElement]] = []
        self._scan_error: BudgetExceededError | CertificationError | None = None

    @cached_property
    def small(self) -> SmallRoots:
        return SmallRoots(self.group)

    @cached_property
    def scan(self) -> ScanResult:
        """The certified scan; a failed scan raises its error again on
        every read instead of running a second time."""
        if self._scan_error is None:
            try:
                return certified_scan(self.group, budget=self.budget)
            except (BudgetExceededError, CertificationError) as exc:
                self._scan_error = exc
        raise self._scan_error

    @cached_property
    def low(self) -> list[GroupElement]:
        return enumerate_low(self.group, budget=self.budget, certificate_scan=self.scan)

    @cached_property
    def table(self) -> regionlib.RegionTable:
        return regionlib.enumerate_regions(self.group, scan=self.scan)

    @cached_property
    def machine(self) -> automata.Automaton:
        return automata.build_automaton(self.group, self.small, self.budget)

    def shells(self, bound: int) -> list[list[GroupElement]]:
        """Shells 0..bound of the group ball, read once from ``group.shells()``
        and held to the element budget."""
        if self._walk is None:
            self._walk = self.group.shells()
        while len(self._shells) <= bound and sum(map(len, self._shells)) <= self.budget:
            self._shells.append(next(self._walk))
        shells = self._shells[:bound + 1]
        if sum(map(len, shells)) > self.budget:
            raise BudgetExceededError(
                self.budget, f"the ball of radius {bound} exceeds the element budget")
        return shells

    def ball(self, bound: int) -> list[GroupElement]:
        return [w for shell in self.shells(bound) for w in shell]


_CONTEXTS: dict[tuple[str, int, int], DeskContext] = {}


def desk_context(family: str, rank: int, budget: int | None = None) -> DeskContext:
    """The context of one type under the resolved budget, made once per process."""
    limit = resolve_budget(budget)
    key = (family, rank, limit)
    if key not in _CONTEXTS:
        _CONTEXTS[key] = DeskContext(root_system(family, rank), limit)
    return _CONTEXTS[key]


def _root_names(group: AffineWeylGroup, roots) -> list[str]:
    return sorted(group.affine_root_name(b) for b in roots)


def _counterexample(group: AffineWeylGroup, w: GroupElement) -> dict:
    return {"element": word_text(group.word_from_element(w)),
            "coefficients": list(w.shi)}


def _at_region(region: regionlib.ShiRegion) -> dict:
    return {"sign_type": region.sign_string}


def _check_each(report: Report, name: str, items, probe, where=None,
                detail=None) -> None:
    """Add check ``name``, failed by the first item that ``probe`` rejects.

    ``probe(item)`` returns ``None`` for a passing item, else a dict of
    facts about the failure; the counterexample is ``where(item)`` (what
    the item is) followed by those facts.  A kernel disagreement with the
    matrix action (``KernelError``), a cone answer whose certificate
    fails (``ratlp.CertificateError``) or a failed enumeration
    cross-check (``lowness.CertificationError``), raised by a probe or
    while the items are read, fails the check too, with the error as its
    counterexample.
    A check that examined no item fails with ``{"examined": 0}``.
    """
    failure = {"examined": 0}
    try:
        for item in items:
            failure = probe(item)
            if failure is not None:
                if where is not None:
                    failure = {**where(item), **failure}
                break
    except KernelError as exc:
        failure = {"kernel_error": str(exc)}
    except CertificateError as exc:
        failure = {"certificate_error": str(exc)}
    except CertificationError as exc:
        failure = {"certification_error": str(exc)}
    report.add(name, failure is None, counterexample=failure, detail=detail)


def _later(build):
    """The items of ``build()``, built on first iteration: inside the
    check that reads them, so a kernel fault while building fails it."""
    yield from build()


# --------------------------------------------------------------------------
# Suite: main-theorem
# --------------------------------------------------------------------------

def verify_main_theorem(family: str, rank: int, bound: int | None = None,
                        budget: int | None = None, seed: int | None = None) -> Report:
    ctx = desk_context(family, rank, budget)
    system, group = ctx.system, ctx.group
    at = partial(_counterexample, group)
    report = Report(suite="main-theorem", family=family, rank=rank, bound=bound,
                    seed=seed)
    expected = system.region_count

    report.add("low_element_count", len(ctx.low) == expected,
               detail=f"{len(ctx.low)} vs (h+1)^n = {expected}")
    report.add("region_minima_count", len(ctx.scan.minima) == expected,
               detail=f"{len(ctx.scan.minima)} vs {expected}")
    report.add("automaton_state_count", len(ctx.machine.states) == expected,
               detail=f"{len(ctx.machine.states)} vs {expected}")
    admissible = signtypes.admissible_sign_types(system, ctx.budget)
    report.add("admissible_sign_type_count", len(admissible) == expected,
               detail=f"{len(admissible)} vs {expected}")
    report.add("admissible_set_equals_region_signs",
               set(admissible) == set(ctx.table.by_sign))

    low_set = set(ctx.low)
    minima_set = set(ctx.scan.minima.values())
    report.add("low_equals_region_minima", low_set == minima_set,
               detail=f"|low|={len(low_set)} |minima|={len(minima_set)} "
                      f"symmetric difference {len(low_set ^ minima_set)}")

    masks = {ctx.small.sigma_mask(w) for w in ctx.low}
    report.add("sigma_injective_on_low", len(masks) == len(ctx.low))
    report.add("sigma_image_equals_states", masks == set(ctx.machine.states))

    catalan = system.catalan_number
    dominant_low = [w for w in ctx.low if all(k >= 0 for k in w.shi)]
    dominant_regions = ctx.table.dominant_regions()
    ideals = system.poset_ideals()
    report.add("dominant_low_catalan", len(dominant_low) == catalan,
               detail=f"{len(dominant_low)} vs Catalan {catalan}")
    report.add("dominant_region_catalan", len(dominant_regions) == catalan)
    report.add("ideal_count_catalan", len(ideals) == catalan)

    def dominance(w):
        dominant = all(k >= 0 for k in w.shi)
        finite_descent = any(1 <= g <= rank for g in group.left_descents(w))
        return None if dominant != finite_descent else {}
    _check_each(report, "dominant_iff_no_finite_left_descent", ctx.low,
                dominance, where=at)

    _check_each(report, "low_set_suffix_closed", ctx.low,
                lambda w: None if all(
                    group.left_multiply(g, w) in low_set
                    for g in group.left_descents(w)) else {},
                where=at)

    small = ctx.small
    triples = [(ideal, region.minimal, group.inversion_set(region.minimal))
               for ideal, region in regionlib.dominant_pairs(system, ctx.table)]

    def level_one(positions):
        """delta minus each listed positive root, as small roots."""
        return frozenset(small.roots[small.count + p] for p in positions)

    def each_ideal(name, holds):
        """Check ``holds(ideal, w, inv)`` for every ideal, naming the first
        ideal where it fails."""
        _check_each(report, name, triples, lambda t: None if holds(*t) else {},
                    where=lambda t: {"ideal": [system.root_name(p) for p in t[0].ideal]})

    each_ideal("dominant_minima_low_and_dominant",
               lambda ideal, w, inv: w in low_set and all(k >= 0 for k in w.shi))
    each_ideal("ideal_closed_form_inversions",
               lambda ideal, w, inv: regionlib.ideal_closed_form_inversions(group, ideal)
               == inv)
    # The generators lie in the window, so equality also puts them in N(w).
    each_ideal("ideal_cone_oracle",
               lambda ideal, w, inv: cone_window_members(
                   group, level_one(ideal.ideal), max((b.delta for b in inv), default=0) + 1)
               == inv)
    each_ideal("ideal_descents_are_antichain",
               lambda ideal, w, inv: group.right_descent_roots(w)
               == level_one(ideal.antichain))
    return report


# --------------------------------------------------------------------------
# Suite: descent-walls
# --------------------------------------------------------------------------

def verify_descent_walls(family: str, rank: int, bound: int | None = None,
                         budget: int | None = None, seed: int | None = None) -> Report:
    ctx = desk_context(family, rank, budget)
    system, group, small, table = ctx.system, ctx.group, ctx.small, ctx.table
    report = Report(suite="descent-walls", family=family, rank=rank, bound=bound,
                    seed=seed)
    # The checks that read other members of the regions than the minima
    # read them from the table's member index, built on first read.
    ball = {"members": table.visited, "stop_length": table.stop_length}

    def wall_theorem(region):
        nd = group.right_descent_roots(region.minimal)
        dr = regionlib.descent_root_set(table, region)
        if nd != dr:
            return {"nd_r": _root_names(group, nd),
                    "descent_roots": _root_names(group, dr)}
        return None
    _check_each(report, "descent_wall_equality", table, wall_theorem, where=_at_region)

    _check_each(report, "descent_roots_separate", table,
                lambda region: None
                if signtypes.descent_mask(system, small, region.sign_type)
                & ~region.separation_mask == 0 else {},
                where=_at_region)

    # The table read the descent walls off its neighbouring regions' masks.
    def geometric(region):
        computed = signtypes.descent_mask(system, small, region.sign_type)
        if region.descent_mask != computed:
            return {"oracle": _root_names(group, small.set_from_mask(region.descent_mask)),
                    "computed": _root_names(group, small.set_from_mask(computed))}
        return None
    _check_each(report, "geometric_wall_oracle", table, geometric, where=_at_region)

    def star_agreement(region):
        trits = region.sign_type
        for s in range(rank):
            if trits[s] != 1:
                continue
            zeroed = trits[:s] + (0,) + trits[s + 1:]
            if signtypes.is_admissible(system, zeroed) != \
                    signtypes.condition_star(system, trits, s):
                return {"simple": system.root_name(s)}
        return None
    _check_each(report, "pair_sum_test_agreement", table,
                star_agreement, where=_at_region)

    def suffix_transform(region):
        w = region.minimal
        for g in group.left_descents(w):
            if not 1 <= g <= rank:
                continue
            sw = group.left_multiply(g, w)
            other = table.region_of(sw)
            if other.minimal != sw:
                return {"letter": g, "issue": "left quotient is not minimal"}
            alpha = group.simple_affine_root(g)
            expect = frozenset(
                group.act_on_affine_root(group.generators[g], b)
                for b in regionlib.descent_root_set(table, region) - {alpha})
            if regionlib.descent_root_set(table, other) != expect:
                return {"letter": g}
        return None
    _check_each(report, "descent_roots_wall_crossing", table,
                suffix_transform, where=_at_region)

    def union_transform(region):
        trits = region.sign_type
        w = region.minimal
        for s in range(rank):
            if trits[s] != -1:
                continue
            g = s + 1
            if g not in group.left_descents(w):
                return {"simple": system.root_name(s),
                        "issue": "minus sign without left descent"}
            sw = group.left_multiply(g, w)
            other = table.region_of(sw).sign_type
            image = signtypes.reflect_sign_type(system, trits, s, other[s])
            if other != image:
                return {"simple": system.root_name(s),
                        "position": next(i for i, t in enumerate(image) if t != other[i])}
            if other[s] not in (0, 1):
                return {"simple": system.root_name(s)}
            expected_zero = (w.shi[s] == -1)
            if (other[s] == 0) != expected_zero:
                return {"simple": system.root_name(s),
                        "issue": "zero sign does not match coefficient -1"}
            zero_variant = other[:s] + (0,) + other[s + 1:]
            if signtypes.is_admissible(system, zero_variant) != expected_zero:
                return {"simple": system.root_name(s),
                        "issue": "zero variant admissibility"}
            for u in table.members[other].samples:
                if sign_of_shi(group.left_multiply(g, u).shi) != trits:
                    return {"simple": system.root_name(s),
                            "issue": "sample leaves the region"}
        return None
    _check_each(report, "wall_crossing_sign_transform", table,
                union_transform, where=_at_region, detail=ball)

    def basis_descents(region):
        w = region.minimal
        basis = group.basis_of_inversion_set(w)
        nd = group.right_descent_roots(w)
        for s in range(rank):
            beta = small.roots[small.count + s]
            if beta in basis and beta not in nd:
                return {"root": group.affine_root_name(beta)}
        return None
    _check_each(report, "level_one_basis_descents", table,
                basis_descents, where=_at_region)

    def eq_star(region):
        i = right_descent_within_sign_type(group, region.minimal)
        return None if i is None else {"wall": system.root_name(i)}
    _check_each(report, "right_descents_change_region", table, eq_star, where=_at_region)

    def minstar(region):
        w = region.minimal
        members = table.members[region.sign_type]
        if tuple(abs(k) for k in w.shi) != members.min_abs:
            return {"minimum_magnitudes": list(members.min_abs)}
        for u in members.samples:
            if any(abs(a) > abs(b) for a, b in zip(w.shi, u.shi)):
                return {"sample": word_text(group.word_from_element(u))}
        return None
    _check_each(report, "minimal_coefficient_magnitudes", table,
                minstar, where=_at_region, detail=ball)

    def weak_order_prefix(region):
        inv = group.inversion_set(region.minimal)
        for u in table.members[region.sign_type].samples:
            if not inv <= group.inversion_set(u):
                return {"sample": word_text(group.word_from_element(u))}
        return None
    _check_each(report, "minimal_inversions_contained_in_samples", table,
                weak_order_prefix, where=_at_region, detail=ball)

    def minimal_characterisation(region):
        dr = regionlib.descent_root_set(table, region)
        for u in table.members[region.sign_type].samples:
            contained = group.right_descent_roots(u) <= dr
            if contained != (u == region.minimal):
                return {"sample": word_text(group.word_from_element(u))}
        return None
    _check_each(report, "minimality_iff_descents_in_walls", table,
                minimal_characterisation, where=_at_region, detail=ball)
    return report


# --------------------------------------------------------------------------
# Suite: recurrences
# --------------------------------------------------------------------------

def verify_recurrences(family: str, rank: int, bound: int | None = None,
                       budget: int | None = None, seed: int | None = None) -> Report:
    ctx = desk_context(family, rank, budget)
    system, group, small = ctx.system, ctx.group, ctx.small
    sweep_bound = bound if bound is not None else _SWEEP_BOUNDS.get(rank, 6)
    report = Report(suite="recurrences", family=family, rank=rank,
                    bound=sweep_bound, seed=seed)
    shells = ctx.shells(sweep_bound)
    sweep = [w for shell in shells for w in shell]
    at = partial(_counterexample, group)
    signed_roots = [list(r) for r in system.positive_roots]
    signed_roots += [[-c for c in r] for r in system.positive_roots]

    # (counterexample facts, reflection t, its root): k(tw, a) must equal
    # k(w, t(a)) + k(t, a) for every root a.  tw comes from the matrix
    # action and w's vector from the kernel, so the recurrence the kernel
    # is built on is checked against the oracle.
    simple = [({"letter": s}, group.generators[s], system.positive_roots[s - 1])
              for s in range(1, rank + 1)]
    reflections = [
        ({"reflection": system.root_name(i)},
         group.reflection_of_affine_root(AffineRoot(root, 0)), root)
        for i, root in enumerate(system.positive_roots)]

    def recurrence(triples):
        # t(a) and k(t, a) do not depend on w: one (a, t(a), k(t, a)) per root.
        terms = [(facts, t, [(alpha, system.reflect(wall, alpha),
                              group.shi_coefficient(t, alpha))
                             for alpha in signed_roots])
                 for facts, t, wall in triples]

        def probe(w):
            for facts, t, rows in terms:
                tw = group.matrix_multiply(t, w)
                if any(group.shi_coefficient(tw, alpha)
                       != group.shi_coefficient(w, image) + k_t
                       for alpha, image, k_t in rows):
                    return facts
            return None
        return probe
    _check_each(report, "coefficient_recurrence_simple", sweep,
                recurrence(simple), where=at)
    _check_each(report, "coefficient_recurrence_reflection", sweep,
                recurrence(reflections), where=at)

    def sign_convention(w):
        point = w.point
        for i, root in enumerate(system.positive_roots):
            pairing = sum(p * c for p, c in zip(point, system.gram_image(root)))
            floor_value = pairing // group.scale
            if group.shi_coefficient(w, root) != floor_value \
                    or group.shi_coefficient(w, [-c for c in root]) != -floor_value:
                return {"root": system.root_name(i)}
        return None
    _check_each(report, "negative_root_coefficient_convention", sweep,
                sign_convention, where=at)

    def finite_coefficients(w):
        finite_inv = group.finite_inversion_set(w)
        for i, root in enumerate(system.positive_roots):
            if group.shi_coefficient(w, root) != (-1 if root in finite_inv else 0):
                return {"root": system.root_name(i)}
        return None
    _check_each(report, "finite_subgroup_coefficients",
                _later(group.finite_elements),
                finite_coefficients, where=at)

    def shortening(w):
        for facts, t, root in reflections:
            if (group.matrix_multiply(t, w).length < w.length) \
                    != (group.shi_coefficient(w, root) <= -1):
                return facts
        return None
    _check_each(report, "negative_coefficient_iff_shorter", sweep, shortening,
                where=at)

    def sigma_transition(w):
        sigma = small.sigma(w)
        for g in group.left_descents(w):
            sw = group.left_multiply(g, w)
            image = {group.act_on_affine_root(group.generators[g], b)
                     for b in small.sigma(sw)}
            if sigma != {group.simple_affine_root(g)} | {b for b in image if b in small}:
                return {"letter": g}
        return None
    _check_each(report, "sigma_left_transition", sweep, sigma_transition, where=at)

    def descent_roots_transition(w):
        nd = group.right_descent_roots(w)
        oracle = group.right_descent_roots_by_action(w)
        if nd != oracle:
            return {"facet_test": _root_names(group, nd),
                    "matrix_action": _root_names(group, oracle)}
        for g in group.left_descents(w):
            sw = group.left_multiply(g, w)
            alpha = group.simple_affine_root(g)
            expect = frozenset(group.act_on_affine_root(group.generators[g], b)
                               for b in nd - {alpha})
            if group.right_descent_roots(sw) != expect:
                return {"letter": g}
        return None
    _check_each(report, "right_descent_roots_left_transition", sweep,
                descent_roots_transition, where=at)

    def permutes_small_roots(g):
        alpha = group.simple_affine_root(g)
        punctured = set(small.roots) - {alpha, AffineRoot(
            tuple(-c for c in alpha.finite), 1)}
        return punctured == {group.act_on_affine_root(group.generators[g], b)
                             for b in punctured}
    report.add("finite_reflections_permute_small_roots",
               all(permutes_small_roots(g) for g in range(1, rank + 1)))

    _check_each(report, "inversion_oracle_agreement", sweep,
                lambda w: None if group.inversion_set(w)
                == group.inversion_set_by_action(w) else {},
                where=at)

    cone_cap = 8 if (rank == 2 and family != "G") else 6 if rank == 2 else 5
    cone_cap = min(cone_cap, sweep_bound)
    _check_each(report, "lowness_oracle_agreement",
                (u for shell in shells[:cone_cap + 1] for u in shell),
                lambda w: None if is_low(group, w)
                == is_low_by_cone(group, small, w) else {},
                where=at, detail=f"exhaustive to length {cone_cap}")

    def length_equalities(item):
        depth, w = item
        if w.length == depth == len(group.inversion_set(w)) == sum(abs(k) for k in w.shi):
            return None
        return {"depth": depth}
    _check_each(report, "length_equalities",
                ((depth, w) for depth, shell in enumerate(shells) for w in shell),
                length_equalities, where=lambda item: at(item[1]))
    return report


# --------------------------------------------------------------------------
# Suite: automaton
# --------------------------------------------------------------------------

def verify_automaton(family: str, rank: int, bound: int | None = None,
                     budget: int | None = None, seed: int | None = None) -> Report:
    ctx = desk_context(family, rank, budget)
    system, group, machine = ctx.system, ctx.group, ctx.machine
    word_bound = bound if bound is not None else _WORD_BOUNDS.get(rank, 5)
    seed = 0 if seed is None else seed
    report = Report(suite="automaton", family=family, rank=rank,
                    bound=word_bound, seed=seed)

    report.add("state_count_formula",
               len(machine.states) == system.region_count,
               detail=f"{len(machine.states)} vs {system.region_count}")
    report.add("states_equal_low_sigma_sets",
               set(machine.states) == {ctx.small.sigma_mask(w) for w in ctx.low})

    base_ok = all(machine.transitions[0][g] is not None
                  and machine.states[machine.transitions[0][g]]
                  == 1 << machine.small.index[group.simple_affine_root(g)]
                  for g in range(rank + 1))
    report.add("empty_state_transitions", base_ok)

    guard_ok = True
    for mask, row in zip(machine.states, machine.transitions):
        for g in range(rank + 1):
            bit = machine.small.index[group.simple_affine_root(g)]
            if (row[g] is None) != bool(mask >> bit & 1):
                guard_ok = False
    report.add("transition_guard", guard_ok)

    # Level d maps each (element, state) pair reached by a reduced word of
    # length d to the number of such words.  A word's verdict on a letter
    # depends only on its pair (the state's transition, the length of the
    # element times the letter), so checking every pair of every level
    # checks every word of length <= word_bound.  The walk multiplies
    # through the matrix action, independently of the kernel's shells.
    level = {(group.identity, 0): 1}
    word_counts, walk_elements = [1], [1]
    mismatch = None
    for depth in range(word_bound):
        reached: dict[tuple[GroupElement, int], int] = {}
        for (w, state), ways in level.items():
            for g, target in enumerate(machine.transitions[state]):
                u = group.matrix_multiply(w, group.generators[g])
                if (target is not None) != (u.length == depth + 1):
                    mismatch = mismatch or {
                        "prefix": word_text(group.word_from_element(w)), "letter": g}
                elif target is not None:
                    reached[u, target] = reached.get((u, target), 0) + ways
        level = reached
        word_counts.append(sum(level.values()))
        walk_elements.append(len({w for w, _ in level}))
    report.add("reduced_word_verdicts_match_length_oracle", mismatch is None,
               counterexample=mismatch,
               detail=f"exhaustive over all words of length <= {word_bound}")

    dp_words = machine.word_counts_by_length(word_bound)
    report.add("word_counts_match_exhaustive_walk", dp_words == word_counts,
               detail=f"counts {dp_words}")
    shell_counts = [len(s) for s in ctx.shells(word_bound)]
    report.add("element_counts_match_bfs", shell_counts == walk_elements,
               detail=f"counts {shell_counts}")
    report.add("element_counts_match_shells",
               shell_counts == system.affine_length_counts(word_bound))

    rng = random.Random(seed)
    _check_each(report, "random_long_word_verdicts",
                (tuple(rng.randrange(rank + 1)
                       for _ in range(rng.randint(1, word_bound + 4)))
                 for _ in range(200)),
                lambda word: None if machine.is_reduced(word)
                == (group.element_from_word(word).length == len(word))
                else {"word": list(word)})

    dot = automata.export_dot(machine)
    labels, edges = automata.parse_dot(dot)
    name = machine.labels
    expect_edges = {(name[state], g): name[target]
                    for state, row in enumerate(machine.transitions)
                    for g, target in enumerate(row) if target is not None}
    report.add("dot_round_trip", sorted(labels) == sorted(name) and edges == expect_edges)
    report.add("dot_deterministic", dot == automata.export_dot(machine))

    table_json = automata.transition_table_json(machine)
    report.add("json_transition_table",
               table_json["states"] == len(machine.states)
               and table_json["start"] == machine.labels[0])
    return report


# --------------------------------------------------------------------------
# Suite: tables (conformance fixtures)
# --------------------------------------------------------------------------

# Wall-crossing row catalogs.  Each row: (simple letter s, signs of R with
# marked positions, signs of R1 with marks, signs of R2 with marks, finite
# roots of the R1 column, their images under s).  Sign strings are in the
# catalog's own positional order; the harness infers the unique assignment
# of positions to canonical roots under which every row validates.
_ROW_CATALOGS: dict[tuple[str, int], list] = {
    ("A", 2): [
        (1, "+-+", (0, 1), "+0+", (2,), "+++", (1, 2), ((0, 1),), ((1, 1),)),
        (1, "0-+", (2,), "+00", (0,), "++0", (1,), ((1, 1),), ((0, 1),)),
        (1, "--0", (0,), "00-", (2,), "0+-", (1,), ((0, 1),), ((1, 1),)),
        (1, "---", (1, 2), "-0-", (0,), "-+-", (0, 1), ((1, 1),), ((0, 1),)),
        (2, "++-", (0, 2), "++0", (1,), "+++", (1, 2), ((1, 0),), ((1, 1),)),
        (2, "0+-", (1,), "+00", (0,), "+0+", (2,), ((1, 1),), ((1, 0),)),
        (2, "-0-", (0,), "0-0", (1,), "0-+", (2,), ((1, 0),), ((1, 1),)),
        (2, "---", (1, 2), "--0", (0,), "--+", (0, 2), ((1, 1),), ((1, 0),)),
    ],
    ("B", 2): [
        (1, "-0++", (3,), "0+0+", (3,), "++0+", (0,), ((1, 1),), ((1, 1),)),
        (1, "-+++", (0, 1), "0+++", (2,), "++++", (0, 2), ((0, 1),), ((2, 1),)),
        (1, "--+0", (1, 2), "0+-0", (1, 2), "++-0", (0,),
         ((0, 1), (2, 1)), ((2, 1), (0, 1))),
        (1, "--0-", (3,), "00--", (3,), "+0--", (0,), ((1, 1),), ((1, 1),)),
        (1, "----", (0, 2), "0---", (1,), "+---", (0, 1), ((2, 1),), ((0, 1),)),
        (2, "++-+", (2, 3), "++0+", (0,), "++++", (0, 2), ((1, 0),), ((1, 1),)),
        (2, "++-0", (0,), "0+0+", (3,), "0+++", (2,), ((1, 1),), ((1, 0),)),
        (2, "00--", (3,), "-000", (0,), "-0+0", (2,), ((1, 0),), ((1, 1),)),
        (2, "0---", (1,), "--00", (1,), "--+0", (1, 2), ((2, 1),), ((2, 1),)),
        (2, "----", (0, 2), "--0-", (3,), "--+-", (2, 3), ((1, 1),), ((1, 0),)),
    ],
}

# Reference values for specific worked regions and alcoves.  Canonical
# positive-root orders: A2 (a1, a2, a1+a2); B2 (a1, a2, a1+a2, 2a1+a2).
# The transcribed presentations display rank-2 data in the angular order
# (a1, highest, middle, a2); the harness records that display order and,
# where only a relabeling of the two simple roots makes a transcribed set
# realizable, reports the relabeling instead of rewriting the fixture.
_A2_DISPLAY = (0, 2, 1)
_B2_DISPLAY = (0, 3, 2, 1)

_A2 = {"a1": (1, 0), "a2": (0, 1), "th": (1, 1)}
_B2 = {"a1": (1, 0), "a2": (0, 1), "th1": (1, 1), "th": (2, 1)}


def _lvl(root: tuple[int, ...]) -> AffineRoot:
    return AffineRoot(root, 0)


def _dmin(root: tuple[int, ...], level: int = 1) -> AffineRoot:
    return AffineRoot(tuple(-c for c in root), level)


_A2_WORKED = {
    "region_signs": (-1, 1, 1),
    "separation": frozenset({_lvl(_A2["a1"]), _dmin(_A2["a2"]), _dmin(_A2["th"])}),
    "descent_roots": frozenset({_lvl(_A2["a1"]), _dmin(_A2["th"])}),
    "inadmissible_display": (-1, 1, 0),
    "k_vector": (1, 0, 2),
    "k_inversions": frozenset({_dmin(_A2["a1"]), _dmin(_A2["th"]),
                               _dmin(_A2["th"], 2)}),
    "k_sigma": frozenset({_dmin(_A2["a1"]), _dmin(_A2["th"])}),
}

_B2_WORKED = {
    "printed_sigma_r1": frozenset({_lvl(_B2["a1"]), _dmin(_B2["a2"]),
                                   _dmin(_B2["th1"]), _dmin(_B2["th"])}),
    "printed_sigma_r2": frozenset({_lvl(_B2["a1"]), _dmin(_B2["a2"]),
                                   _lvl(_B2["th1"]), _dmin(_B2["th"])}),
    "true_r1": (1, -1, 1, 1),
    "true_r2": (1, -1, -1, 1),
    "printed_descent_r1": frozenset({_lvl(_B2["a2"]), _dmin(_B2["th1"])}),
    "printed_descent_r2": frozenset({_lvl(_B2["th1"]), _dmin(_B2["th"])}),
    "suspected_descent_r1": frozenset({_dmin(_B2["a2"]), _dmin(_B2["th1"])}),
    "zeroed_r1_display": (0, 1, 1, -1),
    "zeroed_r2_display": (0, 1, -1, -1),
    "k_display": (1, 1, 0, -1),
    "zeta_display": (1, 1, 0, -1),
}

# Rank-4 admissibility pair over the canonical root order of family A,
# rank 4 (heights then descending coordinates).  The two sign types agree
# except in position 8, where the flip makes one rank-2 restriction
# inadmissible.
_A4_ADMISSIBLE = tuple(signtypes.parse_sign_string("+-+--0-+--"))
_A4_INADMISSIBLE = tuple(signtypes.parse_sign_string("+-+--0-++-"))
_A4_VIOLATION_POSITIONS = (1, 6, 8)


def _relabel_simple_swap(system: RootSystem, roots: frozenset[AffineRoot]) \
        -> frozenset[AffineRoot]:
    """Swap the names of the two simple roots; fix every compound root."""
    simples = [system.positive_roots[0], system.positive_roots[1]]
    swap = {tuple(simples[0]): tuple(simples[1]),
            tuple(simples[1]): tuple(simples[0])}
    out = set()
    for b in roots:
        finite = b.finite
        key = finite if b.delta == 0 else tuple(-c for c in finite)
        if key in swap:
            image = swap[key] if b.delta == 0 else tuple(-c for c in swap[key])
            out.add(AffineRoot(image, b.delta))
        else:
            out.add(b)
    return frozenset(out)


def _display(trits: tuple[int, ...], order: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(trits[p] for p in order)


def _validate_catalog_row(system: RootSystem, group: AffineWeylGroup,
                          small: SmallRoots, table: regionlib.RegionTable,
                          layout: tuple[int, ...], row) -> str | None:
    s, r_str, r_marks, r1_str, r1_marks, r2_str, r2_marks, beta, sbeta = row
    strs = (r_str, r1_str, r2_str)
    marks = (r_marks, r1_marks, r2_marks)
    canon = []
    for text in strs:
        trits = [0] * system.nroots
        for p, t in enumerate(signtypes.parse_sign_string(text)):
            trits[layout[p]] = t
        canon.append(tuple(trits))
    simple = s - 1
    if canon[0][simple] != -1 or canon[1][simple] != 0 or canon[2][simple] != 1:
        return "wall signs"
    for trits in canon:
        if trits not in table.by_sign:
            return "not a region"
    if canon[1] != signtypes.reflect_sign_type(system, canon[0], simple, 0) \
            or canon[2] != signtypes.reflect_sign_type(system, canon[0], simple, 1):
        return "transform"
    for trits, printed in zip(canon, marks):
        marked = [0] * system.nroots
        for n in (layout[p] for p in printed):
            if trits[n] == 0:
                return "mark at zero sign"
            marked[n] = trits[n]
        if signtypes.descent_mask(system, small, trits) != small.mask_from_shi(marked):
            return "marked descent positions"
    def footprints(trits):
        """The positive roots whose walls are descent walls."""
        signs = small.signs_from_mask(signtypes.descent_mask(system, small, trits))
        return {system.positive_roots[i] for i, t in enumerate(signs) if t}
    if set(beta) != footprints(canon[1]):
        return "first root column"
    expect_sbeta = footprints(canon[0]) - {tuple(system.positive_roots[simple])}
    if set(sbeta) != expect_sbeta:
        return "second root column"
    wall = system.positive_roots[simple]
    for b, sb in zip(beta, sbeta):
        if system.reflect(wall, b) != sb:
            return "column images"
    return None


def _catalog_layouts(ctx: DeskContext, rows) -> list[tuple[int, ...]]:
    from itertools import permutations
    system = ctx.system
    valid = []
    for layout in permutations(range(system.nroots)):
        if all(_validate_catalog_row(system, ctx.group, ctx.small, ctx.table,
                                     layout, row) is None for row in rows):
            valid.append(layout)
    return valid


def verify_tables(family: str, rank: int, bound: int | None = None,
                  budget: int | None = None, seed: int | None = None) -> Report:
    ctx = desk_context(family, rank, budget)
    system, group = ctx.system, ctx.group
    report = Report(suite="tables", family=family, rank=rank, bound=bound,
                    seed=seed)

    sizes = {kind: len(signtypes.rank2_admissible_table(kind))
             for kind in ("A2", "B2", "G2")}
    report.add("rank2_table_sizes", sizes == {"A2": 16, "B2": 25, "G2": 49},
               detail=str(sizes))
    a2_table = signtypes.rank2_admissible_table("A2")
    report.add("a2_table_diagram_symmetry",
               all((t[1], t[0], t[2]) in a2_table for t in a2_table))

    rows = _ROW_CATALOGS.get((family, rank))
    if rows is not None:
        table = ctx.table
        layouts = _catalog_layouts(ctx, rows)
        report.add("row_catalog_layout_unique", len(layouts) == 1,
                   detail=f"valid layouts {layouts}")
        if len(layouts) == 1:
            layout = layouts[0]
            report.add("row_catalog_rows_validate", True,
                       detail=f"{len(rows)} rows under layout "
                              f"{[system.root_name(p) for p in layout]}")
            by_letter: dict[int, set] = {}
            for row in rows:
                trits = [0] * system.nroots
                for p, t in enumerate(signtypes.parse_sign_string(row[1])):
                    trits[layout[p]] = t
                by_letter.setdefault(row[0], set()).add(tuple(trits))
            complete = True
            for s in range(1, rank + 1):
                expect = {trits for trits in table.by_sign if trits[s - 1] == -1
                          and all(signtypes.is_admissible(
                              system, signtypes.reflect_sign_type(system, trits, s - 1, fill))
                              for fill in (0, 1))}
                if by_letter.get(s, set()) != expect:
                    complete = False
            report.add("row_catalog_blocks_complete", complete)
        else:
            report.add("row_catalog_rows_validate", False,
                       detail="no unique layout; rows not validated")
            report.add("row_catalog_blocks_complete", False)

    if (family, rank) == ("A", 2):
        worked, table = _A2_WORKED, ctx.table
        region = table.by_sign.get(worked["region_signs"])
        sep_ok = region is not None and \
            regionlib.separation_set(table, region) == worked["separation"]
        report.add("worked_region_separation", sep_ok)
        dr_ok = region is not None and \
            regionlib.descent_root_set(table, region) == worked["descent_roots"] \
            and group.right_descent_roots(region.minimal) == worked["descent_roots"]
        report.add("worked_region_descent_roots", dr_ok)

        display_spot = worked["inadmissible_display"]
        canonical_spot = tuple(display_spot[_A2_DISPLAY.index(i)]
                               for i in range(3))
        report.add("worked_inadmissible_spot",
                   not signtypes.is_admissible(system, canonical_spot),
                   detail=f"display order {_A2_DISPLAY}, canonical "
                          f"{signtypes.sign_string(canonical_spot)}")

        target = worked["k_vector"]
        hits = [w for w in ctx.ball(sum(abs(k) for k in target))
                if w.shi == target]
        k_ok = len(hits) == 1
        if k_ok:
            w = hits[0]
            k_ok = (group.inversion_set(w) == worked["k_inversions"]
                    and ctx.small.sigma(w) == worked["k_sigma"])
        report.add("worked_alcove_coefficients", k_ok,
                   detail=f"unique element with coefficients {list(target)}")

    if (family, rank) == ("B", 2):
        worked, table = _B2_WORKED, ctx.table
        small = ctx.small
        printed_r1, printed_r2 = (
            small.signs_from_mask(small.mask_from_roots(worked[key]))
            for key in ("printed_sigma_r1", "printed_sigma_r2"))
        report.add("reference_sigma_r1_realizable",
                   printed_r1 in table.by_sign
                   and regionlib.separation_set(table, table.by_sign[printed_r1])
                   == worked["printed_sigma_r1"],
                   detail=f"sign type {signtypes.sign_string(printed_r1)}")
        r2_admissible = signtypes.is_admissible(system, printed_r2)
        report.add("reference_sigma_r2_unrealizable_reported",
                   not r2_admissible,
                   detail="transcribed set decodes to sign type "
                          f"{signtypes.sign_string(printed_r2)}, which the "
                          "engine rejects as inadmissible; discrepancy "
                          "reported, fixture left as transcribed")

        true_r1, true_r2 = worked["true_r1"], worked["true_r2"]
        decode_ok = True
        for trits, printed in ((true_r1, worked["printed_sigma_r1"]),
                               (true_r2, worked["printed_sigma_r2"])):
            region = table.by_sign.get(trits)
            if region is None or _relabel_simple_swap(
                    system, regionlib.separation_set(table, region)) != printed:
                decode_ok = False
        report.add("reference_sigma_simple_swap_decodes", decode_ok,
                   detail="both transcribed separation sets equal computed "
                          "region separations after swapping the two simple "
                          "root names; swap recorded, fixtures unchanged")

        r2_region = table.by_sign.get(true_r2)
        dr2_ok = r2_region is not None and \
            regionlib.descent_root_set(table, r2_region) \
            == worked["printed_descent_r2"] \
            and group.right_descent_roots(r2_region.minimal) \
            == worked["printed_descent_r2"]
        report.add("reference_descent_roots_r2", dr2_ok)

        r1_region = table.by_sign.get(true_r1)
        computed_dr1 = regionlib.descent_root_set(table, r1_region) \
            if r1_region else frozenset()
        printed_dr1 = worked["printed_descent_r1"]
        suspected = worked["suspected_descent_r1"]
        in_printed_sigma = printed_dr1 <= worked["printed_sigma_r1"]
        report.add(
            "reference_descent_r1_discrepancy_reported",
            r1_region is not None and not in_printed_sigma
            and computed_dr1 == printed_dr1
            and computed_dr1 != suspected
            and _relabel_simple_swap(system, computed_dr1) != suspected,
            detail={
                "computed": _root_names(group, computed_dr1),
                "transcribed": _root_names(group, printed_dr1),
                "transcribed_alternate": _root_names(group, suspected),
                "note": "transcribed set is not contained in the transcribed "
                        "separation set; the oracle value coincides with the "
                        "transcription read in canonical names and refutes "
                        "the alternate reading; reported, not corrected",
            })

        zero_ok = True
        for trits, display in ((true_r1, worked["zeroed_r1_display"]),
                               (true_r2, worked["zeroed_r2_display"])):
            zeroed = (0,) + trits[1:]
            if signtypes.is_admissible(system, zeroed):
                zero_ok = False
            if _display(zeroed, _B2_DISPLAY) != display:
                zero_ok = False
            if signtypes.condition_star(system, trits, 0):
                zero_ok = False
        report.add("reference_zeroed_variants", zero_ok,
                   detail=f"display order positions {_B2_DISPLAY}")

        canonical_k = [0] * 4
        for slot, p in enumerate(_B2_DISPLAY):
            canonical_k[p] = worked["k_display"][slot]
        canonical_k = tuple(canonical_k)
        hits = [w for w in ctx.ball(sum(abs(k) for k in canonical_k))
                if w.shi == canonical_k]
        literal = worked["k_display"]
        literal_hits = [w for w in ctx.ball(sum(abs(k) for k in literal))
                        if w.shi == literal]
        k_ok = len(hits) == 1 and not literal_hits
        if k_ok:
            w = hits[0]
            k_ok = (_display(tuple(w.shi), _B2_DISPLAY) == worked["k_display"]
                    and _display(sign_of_shi(w.shi), _B2_DISPLAY)
                    == worked["zeta_display"])
        report.add(
            "reference_alcove_coefficients", k_ok,
            detail="transcribed coefficient vector realized bit-exactly in "
                   f"the display order {_B2_DISPLAY}; the canonical-order "
                   "literal reading is realized by no element (exhaustive "
                   "over the full ball of its length) — layout inference "
                   "recorded")

    if (family, rank) == ("A", 4):
        report.add("rank4_pair_admissible",
                   signtypes.is_admissible(system, _A4_ADMISSIBLE))
        violating = {sub.positions: signtypes.restrict_to_subsystem(sub, _A4_INADMISSIBLE)
                     for sub in signtypes.violating_subsystems(system, _A4_INADMISSIBLE)}
        report.add("rank4_pair_inadmissible",
                   not signtypes.is_admissible(system, _A4_INADMISSIBLE)
                   and violating.get(_A4_VIOLATION_POSITIONS) == (-1, -1, 1),
                   detail="marked rank-2 restriction at positions "
                          f"{_A4_VIOLATION_POSITIONS} is (-,-,+); all "
                          f"violating position triples: {sorted(violating)}")
    return report


_SUITE_FUNCTIONS = {
    "main-theorem": verify_main_theorem,
    "descent-walls": verify_descent_walls,
    "recurrences": verify_recurrences,
    "automaton": verify_automaton,
    "tables": verify_tables,
}


def run_suite(suite: str, family: str, rank: int, bound: int | None = None,
              budget: int | None = None, seed: int | None = None) -> Report:
    if suite not in _SUITE_FUNCTIONS:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    return _SUITE_FUNCTIONS[suite](family, rank, bound=bound, budget=budget,
                                   seed=seed)
