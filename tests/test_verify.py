"""Verification suites run clean on every desk-scale type."""
from __future__ import annotations

import inspect
import json
import re
from array import array
from collections import Counter
from itertools import islice

import pytest
from conftest import context, suite_report

from shilow import (AffineWeylGroup, Automaton, BudgetExceededError, GroupElement, Report,
                    SmallRoots, automaton, cli, lowness, ratlp, regions, run_suite,
                    signtypes, verify)
from shilow.elements import word_text


def _failures(report: Report) -> list:
    """The failed checks of ``report``, in report order."""
    return [c for c in report.checks if not c.passed]


@pytest.mark.parametrize("suite", verify.SUITES)
def test_suite_passes(desk, suite):
    family = desk.system.cartan_type.family
    report = suite_report(suite, family, desk.system.rank)
    assert report.passed, report.to_text()
    assert report.suite == suite
    assert all(check.passed for check in report.checks)


@pytest.mark.parametrize("suite, setting", [
    ("main-theorem", "bound"), ("main-theorem", "seed"), ("descent-walls", "bound"),
    ("descent-walls", "seed"), ("tables", "bound"), ("tables", "seed"),
    ("recurrences", "seed")])
def test_a_suite_takes_no_setting_it_does_not_read(suite, setting):
    """A suite rejects a setting it would ignore; ``run_suite`` keeps its
    one signature and passes each suite only its own."""
    with pytest.raises(TypeError):
        verify.SUITES[suite](verify.desk_context("A", 2), **{setting: 7})


@pytest.mark.parametrize("suite", verify.SUITES)
def test_a_suite_takes_its_context_as_its_only_positional_argument(suite):
    """The type and the budget come from the context, so no suite takes
    a family, a rank or a budget of its own."""
    first, *rest = inspect.signature(verify.SUITES[suite]).parameters.values()
    assert first.name == "ctx"
    assert all(p.default is None for p in rest)
    assert not {"family", "rank", "budget"} & {p.name for p in rest}


def test_each_context_is_new():
    """``desk_context`` keeps no context between calls; a caller shares
    one by passing it."""
    assert verify.desk_context("A", 2) is not verify.desk_context("A", 2)


@pytest.mark.parametrize("suite", verify.SUITES)
def test_check_details_are_json_objects(desk, suite):
    """``Check.detail`` is a dict or absent, as annotated."""
    report = suite_report(suite, desk.system.cartan_type.family, desk.system.rank)
    for check in report.checks:
        assert check.detail is None or isinstance(check.detail, dict), check.name
    json.loads(report.to_json())


def test_count_details_name_their_numbers():
    checks = {c.name: c for c in suite_report("main-theorem", "A", 2).checks}
    assert checks["low_element_count"].detail == {"low": 16, "expected": 16}
    assert checks["low_equals_region_minima"].detail == \
        {"low": 16, "minima": 16, "symmetric_difference": 0,
         "oracle": "full-ball scan", "compared": 31}
    assert checks["dominant_low_catalan"].detail == {"dominant_low": 5, "catalan": 5}


@pytest.mark.parametrize("budget, oracle, compared", [
    (500_000, "full-ball scan", 791), (700, None, None)])
def test_low_equals_minima_names_its_oracle(monkeypatch, budget, oracle, compared):
    """The A3 ball out to the walk's stop length holds 791 elements.  Under
    a budget that holds it the full-ball scan is compared; under one that
    does not, no full-ball scan runs and the check, which could only
    compare the low set with the walk it was sorted from, is left out."""
    calls = []
    scan = verify.certified_scan
    monkeypatch.setattr(verify, "certified_scan",
                        lambda *args: calls.append(args) or scan(*args))
    report = verify.verify_main_theorem(verify.desk_context("A", 3, budget))
    check = {c.name: c for c in report.checks}.get("low_equals_region_minima")
    assert report.passed
    if oracle is None:
        assert check is None
    else:
        assert (check.detail["oracle"], check.detail["compared"]) == (oracle, compared)
    assert len(calls) == (oracle is not None)


def test_main_theorem_compares_no_walk_with_itself_on_b4(monkeypatch):
    """The B4 ball out to the walk's stop length exceeds the default
    budget, so no full-ball scan runs, and no check reports the walk as
    the oracle of the low set it was sorted from."""
    calls = []
    monkeypatch.setattr(verify, "certified_scan", lambda *args: calls.append(args))
    report = verify.verify_main_theorem(verify.desk_context("B", 4))
    assert report.passed, report.to_text()
    assert "low_equals_region_minima" not in {c.name for c in report.checks}
    assert not calls


def test_tables_suite_covers_rank4_pair():
    report = suite_report("tables", "A", 4)
    assert report.passed, report.to_text()
    names = {check.name for check in report.checks}
    assert "rank4_pair_admissible" in names
    assert "rank4_pair_inadmissible" in names
    detail = {c.name: c.detail for c in report.checks}["rank4_pair_inadmissible"]
    assert detail["marked_positions"] == [1, 6, 8]
    assert [1, 6, 8] in detail["violating_positions"]


def test_a_small_budget_fails_the_descent_walls_scan():
    with pytest.raises(BudgetExceededError):
        run_suite("descent-walls", "A", 2, budget=10)


def test_descent_walls_refuses_its_member_walk_before_any_check():
    """At budget 20 the A2 walk keeps its 16 minima, but the ball of 31
    elements that the member walk would read is refused up front."""
    with pytest.raises(BudgetExceededError,
                       match="the member walk to length 4 would visit 31 elements"):
        run_suite("descent-walls", "A", 2, budget=20)


def test_ball_walk_is_held_to_the_budget():
    with pytest.raises(BudgetExceededError):
        run_suite("recurrences", "A", 2, budget=10)


@pytest.mark.parametrize("suite, bound, seed", [
    ("main-theorem", None, None),
    ("descent-walls", None, None),
    ("recurrences", 1, None),
    ("automaton", 1, 7),
    ("tables", None, None),
])
def test_a_report_records_only_the_settings_its_suite_reads(a2, suite, bound, seed):
    """Given ``bound=1, seed=7``, each report names only what its suite
    read: the exhaustive length of ``recurrences`` and ``automaton``, and
    the sampling seed of ``automaton``."""
    report = run_suite(suite, "A", 2, bound=1, seed=7)
    assert (report.bound, report.seed) == (bound, seed)
    text = report.to_text().splitlines()[0]
    assert text == f"suite {suite} (A2" + (", bound 1" if bound else "") + ")"
    assert ("seed" in report.to_dict()) == (seed is not None)


def test_tables_suite_builds_no_scan_off_the_catalog_types():
    """Off A2 and B2 the tables suite reads neither the group nor a scan."""
    ctx = verify.desk_context("B", 3)
    assert verify.verify_tables(ctx).passed
    assert not {"group", "scan"} & set(vars(ctx))


def test_each_ideal_check_names_its_own_failing_ideal(a2, monkeypatch):
    """A broken closed form for one ideal and broken descent roots for a
    later ideal's minimum are each reported against their own ideal."""
    pairs = regions.dominant_pairs(a2.system, a2.table)
    x = next(ideal for ideal, _ in pairs if ideal.ideal)
    y, y_region = pairs[-1]
    assert x is not y
    closed_form = regions.ideal_closed_form_inversions
    monkeypatch.setattr(regions, "ideal_closed_form_inversions",
                        lambda group, ideal: frozenset() if ideal.ideal == x.ideal
                        else closed_form(group, ideal))
    descent_roots = AffineWeylGroup.right_descent_roots
    monkeypatch.setattr(AffineWeylGroup, "right_descent_roots",
                        lambda group, w: frozenset() if w == y_region.minimal
                        else descent_roots(group, w))
    checks = {check.name: check for check in run_suite("main-theorem", "A", 2).checks}

    def named(ideal):
        return {"ideal": [a2.system.root_name(p) for p in ideal.ideal]}
    assert checks["dominant_minima_low_and_dominant"].passed
    assert checks["ideal_closed_form_inversions"].counterexample == named(x)
    assert checks["ideal_descents_are_antichain"].counterexample == named(y)
    assert checks["ideal_cone_oracle"].passed
    assert checks["ideal_cone_oracle"].counterexample is None


def test_automaton_suite_catches_a_redirected_transition():
    """Sending s0 from the start state to where s1 goes makes the machine
    accept the non-reduced word s0 s0, which the word walk reports; the
    start state's transition check names the letter."""
    ctx = verify.desk_context("A", 2)
    machine = ctx.machine
    # The start state's row is the first of the flat targets, letter by letter.
    targets = array("i", machine._targets)
    targets[0] = targets[1]
    ctx.machine = Automaton(machine.group, machine._masks, targets)
    assert ctx.machine.transitions[0][0] == machine.transitions[0][1]
    checks = {c.name: c for c in verify.verify_automaton(ctx).checks}
    check = checks["reduced_word_verdicts_match_length_oracle"]
    assert not check.passed
    assert check.counterexample == {"prefix": word_text((0,)), "letter": 0}
    assert checks["empty_state_transitions"].counterexample == {"letter": 0}


@pytest.mark.parametrize("tamper, line, read, want", [
    ("duplicate", 21, 19, 20), ("drop", 20, 20, 19), ("retarget", 20, None, 19)])
def test_a_tampered_dot_stream_fails_the_round_trip(monkeypatch, capsys,
                                                    tamper, line, read, want):
    """A duplicated, dropped or retargeted edge line in the DOT chunks fails
    ``dot_round_trip`` (exit 1) rather than raising; the counterexample
    names the line read and the edge expected there.  Both exports of the
    suite are tampered alike, so ``dot_deterministic`` still passes.  On
    A2 the header and the 16 nodes fill lines 1-19 (indices 0-18)."""
    lines = automaton.export_dot(context("A", 2).machine).splitlines()
    # The start state "000" has no incoming edge.
    retargeted = re.sub(r'-> "[-0+]+"', '-> "000"', lines[19], count=1)
    dot_chunks = automaton.dot_chunks

    def tampered(machine):
        chunks = dot_chunks(machine)
        for chunk in chunks:
            if " -> " in chunk:
                first, rest = chunk.split("\n", 1)
                yield {"duplicate": f"{first}\n{first}\n{rest}", "drop": rest,
                       "retarget": f"{retargeted}\n{rest}"}[tamper]
                break
            yield chunk
        yield from chunks
    monkeypatch.setattr(automaton, "dot_chunks", tampered)
    code = cli.main(["verify", "automaton", "--format", "json"])
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert code == cli.EXIT_FAIL
    assert [name for name, c in checks.items() if c["status"] == "fail"] == ["dot_round_trip"]
    source, target, letter = automaton.match_dot_line(lines[want]).groups()
    assert checks["dot_round_trip"]["counterexample"] == {
        "line": line, "text": retargeted if read is None else lines[read],
        "expected": {"source": source, "letter": int(letter), "target": target}}


def test_the_round_trip_reads_lines_across_chunk_breaks(monkeypatch):
    """The suite reads the DOT stream by lines, not by chunks: the same
    export cut every seven characters still passes, with every node and
    edge read back."""
    dot_chunks = automaton.dot_chunks

    def recut(machine):
        text = "".join(dot_chunks(machine))
        return (text[i:i + 7] for i in range(0, len(text), 7))
    monkeypatch.setattr(automaton, "dot_chunks", recut)
    ctx = context("B", 2)
    checks = {c.name: c for c in verify.verify_automaton(ctx).checks}
    assert checks["dot_round_trip"].status == "pass"
    assert checks["dot_deterministic"].status == "pass"
    edges = sum(t is not None for row in ctx.machine.transitions for t in row)
    assert checks["dot_round_trip"].detail == {"nodes": len(ctx.machine.states),
                                               "edges": edges}


def _corrupt_first_offset(monkeypatch, group: AffineWeylGroup, letter: int) -> None:
    """Add one to the first offset of the letter's left table, both in
    ``left_tables`` and in the per-letter steps that the shell walk and
    the word reader read."""
    table = list(group.left_tables[letter])
    j, s, o = table[0]
    table[0] = (j, s, o + 1)
    tables = list(group.left_tables)
    tables[letter] = tuple(table)
    monkeypatch.setattr(group, "left_tables", tuple(tables))
    steps = list(group._letter_steps)
    steps[letter] = steps[letter][:3] + (tuple(table),) + steps[letter][4:]
    monkeypatch.setattr(group, "_letter_steps", tuple(steps))


def test_recurrence_check_catches_a_corrupted_left_table(monkeypatch):
    """One wrong offset in the left table of s0 gives shells whose vectors
    disagree with the matrix action; the recurrence check computes t*w
    through the matrix action and so reports it."""
    ctx = verify.desk_context("A", 2)
    _corrupt_first_offset(monkeypatch, ctx.group, 0)
    check = {c.name: c for c in verify.verify_recurrences(ctx).checks}[
        "coefficient_recurrence_simple"]
    assert not check.passed
    assert check.counterexample is not None


def test_recurrence_suite_survives_a_corrupted_finite_table(monkeypatch):
    """One wrong offset in the left table of s1 breaks the finite walk;
    the suite still reports, and the finite-subgroup check names the
    kernel fault as its counterexample."""
    ctx = verify.desk_context("A", 2)
    _corrupt_first_offset(monkeypatch, ctx.group, 1)
    check = {c.name: c for c in verify.verify_recurrences(ctx).checks}[
        "finite_subgroup_coefficients"]
    assert not check.passed
    assert "finite walk" in check.counterexample["kernel_error"]


def test_lowness_oracle_fails_on_a_swapped_codec(monkeypatch):
    """A codec that reads the coefficient signs the wrong way round gives
    small inversions outside N(w); the cone oracle raises ``KernelError``
    (also under ``-O``), and the agreement check reports it."""
    mask_from_shi = SmallRoots.mask_from_shi
    monkeypatch.setattr(SmallRoots, "mask_from_shi", staticmethod(
        lambda shi: mask_from_shi(tuple(-k for k in shi))))
    check = {c.name: c for c in run_suite("recurrences", "A", 2).checks}[
        "lowness_oracle_agreement"]
    assert not check.passed
    assert "not all inversions" in check.counterexample["kernel_error"]


def test_descent_roots_separate_fails_on_a_swapped_codec(monkeypatch):
    """The sign type's descent roots, read through a codec that reads the
    signs the wrong way round, are not inversions of the region minimum,
    which ``inversion_set`` reads off the Shi vector."""
    mask_from_shi = SmallRoots.mask_from_shi
    monkeypatch.setattr(SmallRoots, "mask_from_shi", staticmethod(
        lambda shi: mask_from_shi(tuple(-k for k in shi))))
    check = {c.name: c for c in run_suite("descent-walls", "A", 2).checks}[
        "descent_roots_separate"]
    assert not check.passed
    assert check.counterexample == {"sign_type": "-00"}


def test_the_ball_reader_refuses_on_the_call_and_streams_the_shells():
    """``DeskContext.shells`` asks the budget rule when it is called,
    before any shell is read, and hands the shells out one at a time."""
    ctx = verify.desk_context("A", 2, budget=20)
    with pytest.raises(BudgetExceededError, match="ball walk to length 10 would visit 166"):
        ctx.shells(10)
    shells = ctx.shells(2)
    assert not isinstance(shells, list)
    assert [len(shell) for shell in shells] == [1, 3, 6]


def test_one_context_reads_one_codec(monkeypatch):
    """The group owns the small-root codec: the context's automaton, the
    region table's separation sets and a new automaton build all read
    ``ctx.group.small``, and none of them constructs another."""
    ctx = verify.desk_context("B", 2)
    small = ctx.group.small
    built, read = [], []
    init, set_from_mask = SmallRoots.__init__, SmallRoots.set_from_mask

    def counted(self, group):
        built.append(self)
        init(self, group)

    def recorded(self, mask):
        read.append(self)
        return set_from_mask(self, mask)
    monkeypatch.setattr(SmallRoots, "__init__", counted)
    monkeypatch.setattr(SmallRoots, "set_from_mask", recorded)
    assert ctx.machine.group.small is small
    region = list(ctx.table.values())[-1]
    assert regions.separation_set(ctx.group, region) == frozenset(
        small.roots[i] for i, t in enumerate(region.sign_type) if t < 0) | frozenset(
        small.roots[small.count + i] for i, t in enumerate(region.sign_type) if t > 0)
    assert read == [small]
    assert automaton.build_automaton(ctx.group).group.small is small
    assert built == []


def test_cone_oracle_fails_on_a_tampered_certificate(monkeypatch):
    """A Farkas vector turned the wrong way round fails its integer check,
    and the ideal cone oracle reports the ``CertificateError``."""
    check_farkas = ratlp._check_farkas
    monkeypatch.setattr(ratlp, "_check_farkas", lambda columns, target, y:
                        check_farkas(columns, target, [-v for v in y]))
    check = {c.name: c for c in run_suite("main-theorem", "A", 2).checks}[
        "ideal_cone_oracle"]
    assert not check.passed
    assert "Farkas vector" in check.counterexample["certificate_error"]


def test_automaton_suite_walks_the_ball_once(monkeypatch):
    """Word counts come from the machine and element counts from the
    context's shells, so the suite walks the ball once.  A walk counts
    when it takes its first step; the region walk whose minima are the
    low set walks on its own, before the count starts."""
    shells = AffineWeylGroup.shells
    walks = []

    def counted(group, *args, **kwargs):
        def walk():
            walks.append(group)
            yield from shells(group, *args, **kwargs)
        return walk()
    monkeypatch.setattr(AffineWeylGroup, "shells", counted)
    ctx = verify.desk_context("A", 2)
    ctx.scan
    walks.clear()
    assert verify.verify_automaton(ctx).passed
    assert len(walks) == 1


def test_descent_walls_suite_reads_the_recorded_walls(monkeypatch):
    """The regions carry their descent walls, so only the two checks that
    compare them with the sign-type route call ``descent_mask``: at most
    two calls per region, on a fresh context."""
    calls = []
    route = signtypes.descent_mask

    def counted(*args):
        calls.append(args)
        return route(*args)
    monkeypatch.setattr(signtypes, "descent_mask", counted)
    ctx = verify.desk_context("A", 3)
    assert verify.verify_descent_walls(ctx).passed
    assert len(calls) <= 2 * len(ctx.table)


def _word_reads(monkeypatch) -> list:
    calls = []
    word = AffineWeylGroup.word_from_element

    def counted(self, w):
        calls.append(w.shi)
        return word(self, w)
    monkeypatch.setattr(AffineWeylGroup, "word_from_element", counted)
    return calls


@pytest.mark.parametrize("suite", ["main-theorem"])
def test_a_passing_suite_reads_no_reduced_word(monkeypatch, suite):
    """Descents, descent roots and minimality are read off the Shi vector,
    so a passing run on a context built inside it reads no reduced word."""
    calls = _word_reads(monkeypatch)
    assert run_suite(suite, "A", 3).passed
    assert calls == []


def test_descent_walls_reads_reduced_words_of_the_minima_only(monkeypatch):
    """``right_descents_change_region`` reads each minimum's right
    descents off its reduced word and multiplies through the matrix
    action, which reads the word once more; no other check reads one."""
    calls = _word_reads(monkeypatch)
    ctx = verify.desk_context("A", 3)
    assert verify.verify_descent_walls(ctx).passed
    assert set(calls) == {region.minimal.shi for region in ctx.table.values()}
    assert max(Counter(calls).values()) == 2


def test_right_descents_change_region_cross_checks_the_facet_test(monkeypatch):
    """With the facet test blinded, a table takes a swapped A2 minimum;
    the check, reading descents off the reduced word, still fails it."""
    monkeypatch.setattr(AffineWeylGroup, "is_facet", lambda self, shi, i: False)
    ctx = verify.desk_context("A", 2)
    scan = lowness.certified_scan(ctx.group)
    zeta = (1, 0, 1)
    members = [shi for shell in islice(ctx.group.shells(), scan.stop_length + 1)
               for shi in shell if lowness.sign_of_shi(shi) == zeta]
    ctx.scan = lowness.ScanResult(
        scan.group, scan.stop_length,
        {**scan.minima, zeta: GroupElement(ctx.group, members[1])}, scan.visited)
    check = {c.name: c for c in verify.verify_descent_walls(ctx).checks}[
        "right_descents_change_region"]
    assert not check.passed
    assert check.counterexample["sign_type"] == "+0+"


def test_a_corrupted_catalog_row_names_its_letter(monkeypatch):
    """An A2 row catalog whose first row is replaced by the second still
    has one layout, but letter 1's block then misses the first row's
    sign type; the counterexample names the letter and the sign type."""
    rows = verify._ROW_CATALOGS["A", 2]
    monkeypatch.setitem(verify._ROW_CATALOGS, ("A", 2), [rows[1], *rows[1:]])
    report = verify.verify_tables(verify.desk_context("A", 2))
    assert [c.name for c in _failures(report)] == ["row_catalog_blocks_complete"]
    assert _failures(report)[0].counterexample == {
        "letter": 1, "missing": ["-++"], "extra": []}


def test_a_failed_scan_is_raised_again_without_a_rerun(monkeypatch):
    """A context keeps its scan's error: a second suite given the same
    context raises the same error without running the scan again."""
    calls = []
    walk = verify.region_walk

    def counted(*args, **kwargs):
        calls.append(args)
        return walk(*args, **kwargs)
    monkeypatch.setattr(verify, "region_walk", counted)
    ctx = verify.desk_context("A", 3, budget=100)
    with pytest.raises(BudgetExceededError) as first:
        verify.verify_main_theorem(ctx)
    with pytest.raises(BudgetExceededError) as second:
        verify.verify_descent_walls(ctx)
    assert second.value is first.value
    assert len(calls) == 1


def test_main_theorem_tests_descents_once_per_region(monkeypatch):
    """Only the region table looks for a right descent inside a sign type;
    the walk certifies the low set by comparing lowness with sign-type
    novelty, and the full-ball scan by comparing sets."""
    calls = []
    route = lowness.right_descent_within_sign_type

    def counted(*args):
        calls.append(args)
        return route(*args)
    for module in (lowness, regions):
        monkeypatch.setattr(module, "right_descent_within_sign_type", counted)
    assert run_suite("main-theorem", "A", 3).passed
    assert len(calls) == 125


def test_facet_test_disagreement_names_both_routes(monkeypatch):
    """When the facet test and the matrix action disagree on the right
    descent roots, the counterexample lists each route under its name."""
    monkeypatch.setattr(AffineWeylGroup, "right_descent_roots_by_action",
                        lambda self, w: frozenset())
    check = {c.name: c for c in run_suite("recurrences", "A", 2).checks}[
        "right_descent_roots_left_transition"]
    assert not check.passed
    failure = check.counterexample
    assert failure["matrix_action"] == []
    assert failure["facet_test"]
    assert "walls" not in failure


MEMBER_CHECKS = ("wall_crossing_sign_transform", "minimal_coefficient_magnitudes",
                 "minimal_inversions_contained_in_samples",
                 "minimality_iff_descents_in_walls")


def test_member_checks_say_what_ball_they_read():
    """The checks that read the member index report its size: the A2 ball
    to length 4 holds 31 elements."""
    checks = {c.name: c for c in suite_report("descent-walls", "A", 2).checks}
    for name in MEMBER_CHECKS:
        assert checks[name].detail == {"members": 31, "stop_length": 4}, name


def test_member_checks_fail_on_a_broken_member_walk(monkeypatch):
    """A member walk that disagrees with the scan fails the four checks
    that read it, each with the certification error, and no other."""
    ctx = verify.desk_context("A", 2)
    ctx.table
    shells = AffineWeylGroup.shells
    monkeypatch.setattr(AffineWeylGroup, "shells", lambda group, *args, **kwargs:
                        ([shi for shi in shell if sum(map(abs, shi)) != 3]
                         for shell in shells(group, *args, **kwargs)))
    report = verify.verify_descent_walls(ctx)
    assert {c.name for c in _failures(report)} == set(MEMBER_CHECKS)
    for check in _failures(report):
        assert "Bott's series 31" in check.counterexample["certification_error"]


def test_a_failed_member_walk_runs_once(monkeypatch):
    """The context keeps a failed member walk's error, so the checks that
    read the members fail on it without walking the ball again."""
    ctx = verify.desk_context("A", 2)
    ctx.table
    shells = AffineWeylGroup.shells
    walks = []

    def broken(group, *args, **kwargs):
        walks.append(group)
        return ([shi for shi in shell if sum(map(abs, shi)) != 3]
                for shell in shells(group, *args, **kwargs))
    monkeypatch.setattr(AffineWeylGroup, "shells", broken)
    report = verify.verify_descent_walls(ctx)
    assert {c.name for c in _failures(report)} == set(MEMBER_CHECKS)
    assert len(walks) == 1


def test_main_theorem_builds_no_member_index():
    ctx = verify.desk_context("A", 3)
    assert verify.verify_main_theorem(ctx).passed
    assert "members" not in vars(ctx)


@pytest.mark.parametrize("family, rank, lps", [("B", 3, 16), ("A", 4, 20)],
                         ids=["B3", "A4"])
def test_main_theorem_cone_tests_share_one_pool(monkeypatch, family, rank, lps):
    """The dominant-ideal cone oracle settles most window roots by a
    stored Farkas vector or by a decomposition into a known member plus a
    generator, and its ideals share one pool of Farkas vectors: on B3, 16
    roots still need an LP, against 71 with a pool per ideal and 239 with
    Farkas vectors alone."""
    calls = []
    real = ratlp.in_cone

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(ratlp, "in_cone", counted)
    assert verify.verify_main_theorem(context(family, rank)).passed
    assert len(calls) == lps


def test_check_over_no_items_fails():
    report = Report(suite="demo", family="A", rank=2)
    verify._check_each(report, "empty", [], lambda item: None)
    assert not report.passed
    assert report.checks[0].counterexample == {"examined": 0}


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("everything", "A", 2)


def test_report_serialization_round_trip(a2):
    report = suite_report("main-theorem", "A", 2)
    data = json.loads(report.to_json())
    assert data["suite"] == "main-theorem"
    assert data["type"] == "A"
    assert data["rank"] == 2
    assert len(data["checks"]) == len(report.checks)
    for check in data["checks"]:
        assert check["status"] in {"pass", "fail"}
    text = report.to_text()
    assert "result: PASS" in text


def test_failing_report_shape():
    report = Report(suite="demo", family="A", rank=2)
    report.add("good", True)
    report.add("bad", False, counterexample={"word": [1]}, detail={"why": 1})
    assert not report.passed
    assert [c.name for c in _failures(report)] == ["bad"]
    data = json.loads(report.to_json())
    bad = [c for c in data["checks"] if c["status"] == "fail"][0]
    assert bad["counterexample"] == {"word": [1]}
    assert "bad" in report.to_text()
