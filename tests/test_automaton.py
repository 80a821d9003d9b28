"""Reduced-word automaton: construction, recognition, counting, export."""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from array import array
from functools import cache
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shilow import (AffineWeylGroup, SmallRoots, build_automaton, cli, enumerate_low,
                    export_dot, parse_dot, parse_sign_string, root_system,
                    transition_table_json)

ROOT = Path(__file__).resolve().parents[1]


def test_state_count_matches_regions(desk):
    machine = desk.machine
    assert len(machine.states) == desk.system.region_count
    assert machine.letter_count == desk.system.rank + 1


def test_start_state_is_empty_set(desk):
    machine = desk.machine
    assert machine.states[0] == 0
    assert machine.state_label(0) == "0" * desk.small.count


def test_states_are_exactly_low_sigma_sets(desk):
    machine = desk.machine
    assert set(machine.states) == {desk.small.sigma_mask(w)
                                   for w in enumerate_low(desk.group)}
    assert len(set(machine.states)) == len(machine.states)


def test_state_labels_distinct(desk):
    machine = desk.machine
    labels = [machine.state_label(i) for i in range(len(machine.states))]
    assert len(set(labels)) == len(labels)
    for label in labels:
        assert len(label) == desk.small.count
        assert set(label) <= set("+-0")


def test_transition_shape(desk):
    machine = desk.machine
    assert isinstance(machine.transitions, tuple)
    assert len(machine.transitions) == len(machine.states)
    for row in machine.transitions:
        assert isinstance(row, tuple)
        assert len(row) == machine.letter_count
        for target in row:
            assert target is None or 0 <= target < len(machine.states)


def test_no_letter_repeats_from_fresh_extension(desk):
    # after reading letter g from any state, reading g again is rejected
    machine = desk.machine
    for state in range(len(machine.states)):
        for g in range(machine.letter_count):
            target = machine.transitions[state][g]
            if target is not None:
                assert machine.transitions[target][g] is None


def test_is_reduced_validates_letters(desk):
    machine = desk.machine
    with pytest.raises(ValueError):
        machine.is_reduced((0, machine.letter_count))
    with pytest.raises(ValueError):
        machine.is_reduced((-1,))


def test_empty_word_accepted(desk):
    assert desk.machine.is_reduced(())


def test_accepted_language_is_prefix_closed(desk):
    machine = desk.machine
    letters = range(machine.letter_count)
    for word in itertools.product(letters, repeat=4):
        if machine.is_reduced(word):
            for cut in range(len(word)):
                assert machine.is_reduced(word[:cut])


def test_verdicts_match_length_oracle(desk):
    machine = desk.machine
    group = desk.group
    letters = range(machine.letter_count)
    bound = 6 if desk.system.rank == 2 else 4
    for length in range(bound + 1):
        for word in itertools.product(letters, repeat=length):
            element = group.element_from_word(word)
            assert machine.is_reduced(word) == (element.length == length)


def test_word_and_element_counts(desk):
    machine = desk.machine
    words = machine.word_counts_by_length(6)
    elements = [len(s) for s in islice(desk.group.shells(), 7)]
    assert words[0] == elements[0] == 1
    assert words[1] == elements[1] == machine.letter_count
    # elements are never more numerous than the words spelling them
    assert all(e <= w for w, e in zip(words, elements))
    assert elements == desk.system.affine_length_counts(6)
    shell_sizes = [len(s) for s in desk.shells(6)]
    assert elements == shell_sizes


def test_word_counts_match_exhaustive_enumeration(desk):
    machine = desk.machine
    letters = range(machine.letter_count)
    bound = 5 if desk.system.rank == 2 else 4
    words = machine.word_counts_by_length(bound)
    for length in range(bound + 1):
        brute = sum(1 for word in itertools.product(letters, repeat=length)
                    if machine.is_reduced(word))
        assert words[length] == brute


def test_dot_export_round_trip(desk):
    machine = desk.machine
    dot = export_dot(machine)
    assert dot == export_dot(machine)
    assert dot.startswith("digraph")
    labels, edges = parse_dot(dot)
    assert len(labels) == len(machine.states)
    expected_edges = sum(
        1 for row in machine.transitions for t in row if t is not None)
    assert len(edges) == expected_edges
    # every automaton transition appears with matching endpoint labels
    for state, row in enumerate(machine.transitions):
        for g, target in enumerate(row):
            if target is not None:
                key = (machine.state_label(state), g)
                assert edges[key] == machine.state_label(target)


def test_transition_table_json(desk):
    import json
    machine = desk.machine
    data = transition_table_json(machine)
    json.dumps(data)
    assert data["states"] == len(machine.states)
    assert data["rank"] == desk.system.rank
    table = data["transitions"]
    assert len(table) == len(machine.states)
    assert list(table) == sorted(table)
    assert data["start"] in table
    for label, row in table.items():
        for letter_name, target in row.items():
            assert letter_name.startswith("s")
            assert target in table
    # mirror one concrete transition
    start_row = table[data["start"]]
    assert len(start_row) == machine.letter_count
    for g in range(machine.letter_count):
        target = machine.transitions[0][g]
        assert start_row[f"s{g}"] == machine.state_label(target)


def reference_automaton(group, small):
    """The reference construction: the image of a state under a letter is
    built one set bit at a time, states numbered in breadth-first order."""
    letters = range(group.system.rank + 1)
    letter_bit = [small.index[group.simple_affine_root(g)] for g in letters]
    images = [[small.index.get(group.act_on_affine_root(group.generators[g], beta))
               for beta in small.roots] for g in letters]
    index = {0: 0}
    states = [0]
    transitions = []
    for mask in states:
        row = []
        for g in letters:
            if mask >> letter_bit[g] & 1:
                row.append(None)
                continue
            new_mask = 1 << letter_bit[g]
            for i, image in enumerate(images[g]):
                if mask >> i & 1 and image is not None:
                    new_mask |= 1 << image
            if new_mask not in index:
                index[new_mask] = len(states)
                states.append(new_mask)
            row.append(index[new_mask])
        transitions.append(tuple(row))
    return tuple(states), tuple(transitions)


@cache
def _machine(name):
    group = AffineWeylGroup(root_system(name[0], int(name[1:])))
    return build_automaton(group, SmallRoots(group))


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B3", "C3",
                                  "B4", "C4", "D4"])
def test_chunk_tables_equal_reference_builder(name):
    machine = _machine(name)
    states, transitions = reference_automaton(machine.group, machine.small)
    assert machine.states == states
    assert machine.transitions == transitions


@st.composite
def typed_words(draw):
    """A type above the desk and a random word (not necessarily reduced)."""
    name = draw(st.sampled_from(("B3", "C3", "A4", "D4")))
    rank = int(name[1:])
    return name, tuple(draw(st.lists(st.integers(0, rank), max_size=14)))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(typed_words())
def test_is_reduced_matches_the_length_oracle(case):
    """The automaton accepts a word exactly when its product has the
    word's length."""
    name, word = case
    machine = _machine(name)
    assert machine.is_reduced(word) == \
        (machine.group.element_from_word(word).length == len(word))


@pytest.mark.parametrize("name", ["B4", "D4"])
def test_every_label_round_trips_to_its_state(name):
    machine = _machine(name)
    for state, label in zip(machine.states, machine.labels):
        assert machine.small.mask_from_shi(parse_sign_string(label)) == state


def test_order_sorts_states_by_label(desk):
    machine = desk.machine
    assert isinstance(machine.order, array)
    assert [machine.labels[i] for i in machine.order] == sorted(machine.labels)


@pytest.mark.parametrize("name", ["B4", "C4", "D4"])
def test_rank_four_exports_match_recorded_digests(name):
    """The digests the benchmark checks, recorded at the seed commit."""
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    machine = _machine(name)
    table = json.dumps(transition_table_json(machine), indent=2)
    digests = {"dot_sha256": export_dot(machine), "json_sha256": table}
    for key, text in digests.items():
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() \
            == expected["exports"][name][key]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("fmt", ["dot", "json"])
@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B4", "C4", "D4"])
def test_streamed_cli_exports_equal_the_library_exports(tmp_path, name, fmt):
    """``shilow automaton`` writes its export chunk by chunk, to stdout and
    to ``--output``; both give the library export's bytes (the JSON with
    the CLI's closing newline), and on the rank-four types the digests
    the benchmark checks."""
    machine = _machine(name)
    if fmt == "dot":
        expected = export_dot(machine)
    else:
        expected = json.dumps(transition_table_json(machine), indent=2) + "\n"
    argv = ["automaton", "--type", name[0], "--rank", name[1:], "--format", fmt]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(argv) == 0
    target = tmp_path / f"{name}.{fmt}"
    assert cli.main([*argv, "--output", str(target)]) == 0
    assert buffer.getvalue() == expected
    assert target.read_text(encoding="utf-8") == expected
    if name.endswith("4"):
        recorded = json.loads((ROOT / "perfbench" / "expected.json").read_text())
        text = expected if fmt == "dot" else expected.removesuffix("\n")
        assert _sha256(text) == recorded["exports"][name][f"{fmt}_sha256"]


_DUPLICATE_EDGE = (
    'digraph reduced_words {\n  "0";\n  "+";\n'
    '  "0" -> "+" [label="s0"];\n  "0" -> "-" [label="s0"];\n}\n')


def test_parse_dot_rejects_a_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate edge"):
        parse_dot(_DUPLICATE_EDGE)


def test_parse_dot_rejects_a_duplicate_edge_under_python_o():
    """The duplicate check is an explicit raise, so ``-O`` keeps it."""
    program = ("from shilow import parse_dot\n"
               "try:\n"
               f"    parse_dot({_DUPLICATE_EDGE!r})\n"
               "except ValueError as exc:\n"
               "    print('ValueError:', exc)\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-O", "-c", program],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ValueError: duplicate edge")
