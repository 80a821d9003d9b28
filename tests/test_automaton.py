"""Reduced-word automaton: construction, recognition, counting, export."""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from array import array
from collections.abc import Sequence
from functools import cache
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shilow import (AffineWeylGroup, automaton, build_automaton, cli,
                    enumerate_low, export_dot, parse_dot, parse_sign_string, root_system,
                    sign_string, transition_table_json)

ROOT = Path(__file__).resolve().parents[1]


def test_state_count_matches_regions(desk):
    machine = desk.machine
    assert len(machine.states) == desk.system.region_count
    assert machine.letter_count == desk.system.rank + 1


def test_start_state_is_empty_set(desk):
    machine = desk.machine
    assert machine.states[0] == 0
    assert machine.state_label(0) == "0" * desk.group.small.count


def test_states_are_exactly_low_sigma_sets(desk):
    machine = desk.machine
    assert set(machine.states) == {desk.group.small.sigma_mask(w)
                                   for w in enumerate_low(desk.group)}
    assert len(set(machine.states)) == len(machine.states)


def test_state_labels_distinct(desk):
    machine = desk.machine
    labels = [machine.state_label(i) for i in range(len(machine.states))]
    assert len(set(labels)) == len(labels)
    for label in labels:
        assert len(label) == desk.group.small.count
        assert set(label) <= set("+-0")


def test_transition_shape(desk):
    machine = desk.machine
    assert isinstance(machine.transitions, Sequence)
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
    return build_automaton(group)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B3", "C3",
                                  "B4", "C4", "D4"])
def test_chunk_tables_equal_reference_builder(name):
    machine = _machine(name)
    states, transitions = reference_automaton(machine.group, machine.group.small)
    assert tuple(machine.states) == states
    assert tuple(machine.transitions) == transitions


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
    """Labels are decoded eight positions at a time; each equals the whole
    mask decoded at once, and reads back to its state."""
    machine = _machine(name)
    small = machine.group.small
    for state, label in zip(machine.states, machine.labels):
        assert small.mask_from_shi(parse_sign_string(label)) == state
        assert label == sign_string(small.signs_from_mask(state))
        assert small.signs_from_mask(state, 3, 11) == small.signs_from_mask(state)[3:11]


@pytest.mark.parametrize("name", ["B4", "D4"])
def test_the_machine_holds_no_python_object_per_state_or_transition(name):
    """Live memory after the build, traced by ``tracemalloc``: the
    transitions take one machine int each and a state mask its 2N bits,
    with room for the arrays' growth, instead of about 155 bytes of int
    and tuple objects per state."""
    group = AffineWeylGroup(root_system(name[0], int(name[1:])))
    small = group.small
    build_automaton(group)  # fills the group's lazy tables first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        machine = build_automaton(group)
        gc.collect()
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    flat = 4 * machine.letter_count + (2 * small.count + 7) // 8
    assert live <= len(machine.states) * flat * 5 // 4 + 4096


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


def _parse_dot_by_matches(text):
    """The earlier reading of ``parse_dot``: one ``finditer`` match at a
    time over the whole text, with a newline put before it."""
    labels, edges = [], {}
    for line in automaton._DOT_LINE.finditer("\n" + text):
        source, target, letter = line.groups()
        if not target:
            labels.append(source)
            continue
        key = (source, int(letter))
        if key in edges:
            raise ValueError(f"duplicate edge from {source!r} on s{letter}")
        edges[key] = target
    return labels, edges


def _reading(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def test_parse_dot_reads_blocks_as_the_whole_text_reading_did():
    """``parse_dot`` reads the text a block of lines at a time.  On an A4
    export longer than one block, without its header (so the first line is
    a node) and with whitespace, attributes and letters written in other
    ways the grammar allows, it gives what one match per line over the
    whole text gave; so it does with one line copied next to itself, for
    each line near the first block boundary, which places a duplicate edge
    on either side of the boundary and across it."""
    lines = export_dot(_machine("A4")).splitlines()[3:]
    for i, line in enumerate(lines):
        if i % 3 == 0:
            line = "\t" + line.lstrip()
        if i % 4 == 1:
            line = line.replace(" -> ", "\t->  ").replace(";", " [shape=box];")
        if i % 5 == 2:
            line = line.replace('"s1"', '"s01"').replace(' [label', '[label')
        lines[i] = line
    text = "\n".join(lines) + "\n"
    assert len(text) > 2 * automaton._DOT_BLOCK
    assert parse_dot(text) == _parse_dot_by_matches(text)
    boundary = text.count("\n", 0, text.find("\n", automaton._DOT_BLOCK))
    assert " -> " in lines[boundary] or "->" in lines[boundary]
    for i in range(boundary - 3, boundary + 4):
        copied = "\n".join(lines[:i + 1] + lines[i:]) + "\n"
        expected = _reading(_parse_dot_by_matches, copied)
        assert isinstance(expected, str) and expected.startswith("duplicate edge")
        assert _reading(parse_dot, copied) == expected
