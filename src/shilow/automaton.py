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
``Automaton.order`` sorts the states by label once, and both exports
(DOT and the JSON transition table) walk that order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .elements import AffineWeylGroup
from .lowness import DEFAULT_BUDGET, BudgetExceededError, SmallRoots
from .signtypes import sign_string

_CHUNK = 8  # bits per table lookup in transitions and labels


@dataclass(frozen=True)
class Automaton:
    group: AffineWeylGroup
    small: SmallRoots
    states: tuple[int, ...]
    transitions: tuple[tuple[int | None, ...], ...]

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
    def order(self) -> tuple[int, ...]:
        """The state indices sorted by label: the order of both exports."""
        labels = self.labels
        return tuple(sorted(range(len(labels)), key=labels.__getitem__))

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


def element_counts_by_length(group: AffineWeylGroup, max_length: int) -> list[int]:
    """Ball growth: the sizes of the group's length shells."""
    return [len(shell) for shell in islice(group.shells(), max_length + 1)]


def count_by_length(automaton: Automaton,
                    max_length: int) -> tuple[list[int], list[int]]:
    """Reduced-word counts (state DP) and element counts (length shells).

    The automaton accepts every reduced word, so several words may spell
    the same element; the two lists therefore differ from length 2 on.
    """
    words = automaton.word_counts_by_length(max_length)
    elements = element_counts_by_length(automaton.group, max_length)
    return words, elements


def export_dot(automaton: Automaton) -> str:
    """Deterministic DOT rendering: nodes sorted by label, edges by
    (source label, letter)."""
    labels = automaton.labels
    order = automaton.order
    lines = ["digraph reduced_words {", "  rankdir=LR;",
             "  node [shape=circle];"]
    for state in order:
        shape = ' [shape=doublecircle]' if state == 0 else ""
        lines.append(f'  "{labels[state]}"{shape};')
    for state in order:
        source = labels[state]
        for g, target in enumerate(automaton.transitions[state]):
            if target is not None:
                lines.append(f'  "{source}" -> "{labels[target]}" [label="s{g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


_DOT_EDGE = re.compile(
    r'"([-0+]+)"[ \t]*->[ \t]*"([-0+]+)"[ \t]*\[label="s(\d+)"\]')
# A node is a line of its own.  The pattern starts at the newline before
# it, not at ``^``: a literal first character lets the search skip ahead.
_DOT_NODE = re.compile(r'\n[ \t]*"([-0+]+)"(?:[ \t]*\[[^]\n]*\])?;')


def parse_dot(text: str) -> tuple[list[str], dict[tuple[str, int], str]]:
    """Recover node labels and the labelled edge map from export_dot output;
    raises ``ValueError`` on a second edge with the same source and letter.

    Edges are read one match at a time and every label is kept as one
    string object, shared by its node and all its edges, so the result
    holds one copy of each label rather than one per edge end."""
    names: dict[str, str] = {}
    edges: dict[tuple[str, int], str] = {}
    for edge in _DOT_EDGE.finditer(text):
        source, target, letter = edge.groups()
        key = (names.setdefault(source, source), int(letter))
        if key in edges:
            raise ValueError(f"duplicate edge from {source!r} on s{letter}")
        edges[key] = names.setdefault(target, target)
    labels = [names.setdefault(label, label)
              for label in _DOT_NODE.findall("\n" + text)]
    return labels, edges


def transition_table_json(automaton: Automaton) -> dict:
    system = automaton.group.system
    labels = automaton.labels
    letters = [f"s{g}" for g in range(automaton.letter_count)]
    table = {}
    for i in automaton.order:
        table[labels[i]] = {letter: labels[target] for letter, target
                            in zip(letters, automaton.transitions[i])
                            if target is not None}
    return {
        "type": system.cartan_type.family,
        "rank": system.cartan_type.rank,
        "states": len(labels),
        "start": labels[0],
        "transitions": table,
    }
