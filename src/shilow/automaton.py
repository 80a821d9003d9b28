"""Finite automaton recognising the reduced words of the affine group.

States are the small inversion sets, realised as bitmasks over the small
root table.  Reading a word letter by letter tracks the small inversion
set of the reversed prefix product: from state T the letter g is legal
iff the simple affine root of g lies outside T, and then leads to
{alpha_g} together with the images of T under g that are again small.
A word is reduced iff every prefix transition is defined, so the
automaton accepts exactly the reduced words, and its reachable states
are exactly the small inversion sets of group elements.

The construction and the labels read masks eight bits at a time.
``build_automaton`` tabulates, for every 8-bit chunk of a state mask,
its images under all the letters side by side in one integer, so the
transitions of a state cost one lookup per chunk; the labels decode
eight sign positions per lookup, from a table filled as pieces occur.
``Automaton.order`` sorts the states by label once and keeps the result
compact, as one ``array("i")``; both exports (DOT and the JSON
transition table) walk that order.  Each export is written in chunks,
one per state (``dot_chunks``, ``json_chunks``), so a caller can stream
it without holding the whole text; ``export_dot`` joins the DOT chunks.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator, Sequence
from functools import cached_property

from .elements import AffineWeylGroup
from .lowness import DEFAULT_BUDGET, BudgetExceededError, SmallRoots
from .signtypes import sign_string

_CHUNK = 8  # bits per table lookup in transitions and labels


class Automaton:
    # No __slots__: ``labels`` and ``order`` are cached in the __dict__.

    def __init__(self, group: AffineWeylGroup, small: SmallRoots, states: tuple[int, ...],
                 transitions: tuple[tuple[int | None, ...], ...]):
        self.group = group
        self.small = small
        self.states = states
        self.transitions = transitions

    @property
    def letter_count(self) -> int:
        return self.group.system.rank + 1

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Sign-type-style encoding of each state's small root set.

        A label is decoded eight positions at a time: the bits of those
        positions in both halves of the mask key that span's piece of
        text, decoded by the ``SmallRoots`` codec the first time it
        occurs."""
        n = self.small.count
        spans = []
        for start in range(0, n, _CHUNK):
            stop = min(start + _CHUNK, n)
            bits = (1 << stop) - (1 << start)
            spans.append((start, stop, bits | bits << n, {}))
        labels = []
        for mask in self.states:
            label = ""
            for start, stop, bits, pieces in spans:
                key = mask & bits
                piece = pieces.get(key)
                if piece is None:
                    signs = self.small.signs_from_mask(key)[start:stop]
                    piece = pieces[key] = sign_string(signs)
                label += piece
            labels.append(label)
        return tuple(labels)

    @cached_property
    def order(self) -> Sequence[int]:
        """The state indices sorted by label, the order of both exports, as
        a compact ``array("i")``: one machine int per state instead of one
        int object."""
        from array import array  # here: importing the CLI need not load it

        labels = self.labels
        return array("i", sorted(range(len(labels)), key=labels.__getitem__))

    def state_label(self, state: int) -> str:
        """The label of one state; see ``labels``."""
        return self.labels[state]

    def is_reduced(self, word: tuple[int, ...]) -> bool:
        for g in word:
            if not 0 <= g <= self.group.system.rank:
                raise ValueError(f"letter {g} out of range")
        state = 0
        for g in word:
            nxt = self.transitions[state][g]
            if nxt is None:
                return False
            state = nxt
        return True

    def word_counts_by_length(self, max_length: int) -> list[int]:
        """Number of reduced words of each length up to the bound."""
        ways = [0] * len(self.states)
        ways[0] = 1
        counts = [1]
        for _ in range(max_length):
            nxt = [0] * len(self.states)
            for state, count in enumerate(ways):
                if count == 0:
                    continue
                for g in range(self.letter_count):
                    target = self.transitions[state][g]
                    if target is not None:
                        nxt[target] += count
            ways = nxt
            counts.append(sum(ways))
        return counts


def build_automaton(group: AffineWeylGroup, small: SmallRoots | None = None,
                    budget: int = DEFAULT_BUDGET) -> Automaton:
    """The automaton of the reachable small inversion sets, found breadth
    first; raises ``BudgetExceededError`` once the states exceed ``budget``.

    The images of a state mask under all the letters are read eight bits
    at a time from one set of chunk tables.  Field ``g`` (``width`` bits
    wide) of entry ``b`` holds the mask of the small images, under the
    generator of letter ``g``, of the small roots whose bits are set in
    ``b``; each entry is filled from the one with its lowest bit cleared.
    A state thus costs one lookup per chunk for all its transitions."""
    system = group.system
    if small is None:
        small = SmallRoots(group)
    width = 2 * small.count
    shifts = range(0, width, _CHUNK)
    chunk = (1 << _CHUNK) - 1
    field = (1 << width) - 1
    letters = range(system.rank + 1)
    images = [0] * width
    for g in letters:
        gen = group.generators[g]
        for i, beta in enumerate(small.roots):
            moved = small.index.get(group.act_on_affine_root(gen, beta))
            if moved is not None:
                images[i] |= 1 << (g * width + moved)
    tables = []
    for shift in shifts:
        table = [0] * (1 << min(_CHUNK, width - shift))
        for b in range(1, len(table)):
            low = b & -b
            table[b] = table[b ^ low] | images[shift + low.bit_length() - 1]
        tables.append(table)
    # (bit of the letter's simple root, offset of the letter's field)
    moves = [(1 << small.index[group.simple_affine_root(g)], g * width)
             for g in letters]

    index = {0: 0}
    states = [0]
    transitions: list[list[int | None]] = []
    frontier = [0]
    while frontier:
        next_frontier = []
        for mask in frontier:
            packed = 0
            for table, shift in zip(tables, shifts):
                packed |= table[mask >> shift & chunk]
            row: list[int | None] = []
            for bit, offset in moves:
                if mask & bit:
                    row.append(None)
                    continue
                new_mask = packed >> offset & field | bit
                target = index.get(new_mask)
                if target is None:
                    if len(states) >= budget:
                        raise BudgetExceededError(
                            budget, "automaton states exceeded the budget")
                    target = index[new_mask] = len(states)
                    states.append(new_mask)
                    next_frontier.append(new_mask)
                row.append(target)
            transitions.append(tuple(row))
        frontier = next_frontier
    return Automaton(group=group, small=small, states=tuple(states),
                     transitions=tuple(transitions))


def _dot_pieces(automaton: Automaton) -> Iterator[str]:
    """The lines of the DOT export, without their newlines, grouped per
    state: the header, one node line per state, the out-edges of each
    state, and the closing brace.  Nodes are sorted by label, edges by
    (source label, letter)."""
    labels = automaton.labels
    order = automaton.order
    transitions = automaton.transitions
    yield "digraph reduced_words {\n  rankdir=LR;\n  node [shape=circle];"
    for state in order:
        shape = " [shape=doublecircle]" if state == 0 else ""
        yield f'  "{labels[state]}"{shape};'
    ends = [f'" [label="s{g}"];' for g in range(automaton.letter_count)]
    for state in order:
        start = f'  "{labels[state]}" -> "'
        yield "\n".join([start + labels[target] + ends[g]
                         for g, target in enumerate(transitions[state])
                         if target is not None])
    yield "}"


def dot_chunks(automaton: Automaton) -> Iterator[str]:
    """The DOT export in per-state chunks, each ending with a newline."""
    for piece in _dot_pieces(automaton):
        yield piece + "\n"


def export_dot(automaton: Automaton) -> str:
    """Deterministic DOT rendering: the chunks of ``dot_chunks`` joined."""
    # The pieces are kept in a list while the text is joined and then
    # copied with its closing newline.  Joining the chunks directly saves
    # that copy, yet it raised the peak RSS of rank4-enumerate by 0.4 MB:
    # once the first text is freed, glibc's malloc serves the large
    # blocks of a following ``json.dumps`` from the heap's free space
    # instead of mapping new pages.
    pieces = list(_dot_pieces(automaton))
    return "\n".join(pieces) + "\n"


# One line of the export: a node ``"label" [attributes];`` (groups 2 and
# 3 empty) or an edge ``"source" -> "target" [label="s<g>"]``.
_DOT_ITEM = (r'[ \t]*"([-0+]+)"(?:[ \t]*->[ \t]*"([-0+]+)"[ \t]*'
             r'\[label="s(\d+)"\]|(?:[ \t]*\[[^]\n]*\])?;)')
# ``parse_dot`` searches the whole text, so its pattern starts at the
# newline before the line, not at ``^``: a literal first character lets
# the search skip ahead.  ``match_dot_line`` reads one line at a time.
_DOT_LINE = re.compile("\n" + _DOT_ITEM)
match_dot_line = re.compile(_DOT_ITEM).match


def parse_dot(text: str) -> tuple[list[str], dict[tuple[str, int], str]]:
    """Recover node labels and the labelled edge map from export_dot output;
    raises ``ValueError`` on a second edge with the same source and letter.

    Nodes and edges are read in one pass over the lines, one match at a
    time, and every label is kept as one string object, shared by its node
    and all its edges, so the result holds one copy of each label rather
    than one per edge end."""
    names: dict[str, str] = {}
    labels: list[str] = []
    edges: dict[tuple[str, int], str] = {}
    for line in _DOT_LINE.finditer("\n" + text):
        source, target, letter = line.groups()
        source = names.setdefault(source, source)
        if not target:
            labels.append(source)
            continue
        key = (source, int(letter))
        if key in edges:
            raise ValueError(f"duplicate edge from {source!r} on s{letter}")
        edges[key] = names.setdefault(target, target)
    return labels, edges


def _table_head(automaton: Automaton) -> dict:
    """The fields of the JSON transition table before ``transitions``."""
    cartan_type = automaton.group.system.cartan_type
    return {
        "type": cartan_type.family,
        "rank": cartan_type.rank,
        "states": len(automaton.states),
        "start": automaton.labels[0],
    }


def transition_table_json(automaton: Automaton) -> dict:
    labels = automaton.labels
    transitions = automaton.transitions
    letters = [f"s{g}" for g in range(automaton.letter_count)]
    table = {labels[i]: {letter: labels[target] for letter, target
                         in zip(letters, transitions[i]) if target is not None}
             for i in automaton.order}
    return {**_table_head(automaton), "transitions": table}


def json_chunks(automaton: Automaton) -> Iterator[str]:
    """``json.dumps(transition_table_json(automaton), indent=2)``, piece by
    piece, without building the table: the head fields and the opening of
    ``transitions``, one piece per state, and the closing braces.

    A label is written between quotes as it is: it is a string over
    ``-0+``, which JSON needs no escape for.  Every state has a legal
    letter (an affine Weyl group is infinite), so no row is empty."""
    labels = automaton.labels
    transitions = automaton.transitions
    head = json.dumps(_table_head(automaton), indent=2)
    yield head[:-2] + ',\n  "transitions": {'
    starts = [f'\n      "s{g}": "' for g in range(automaton.letter_count)]
    separator = "\n"
    for state in automaton.order:
        row = ",".join([starts[g] + labels[target] + '"'
                        for g, target in enumerate(transitions[state])
                        if target is not None])
        yield f'{separator}    "{labels[state]}": {{{row}\n    }}'
        separator = ",\n"
    yield "\n  }\n}"
