"""Finite automaton recognising the reduced words of the affine group.

States are the small inversion sets, realised as bitmasks over the small
root table.  Reading a word letter by letter tracks the small inversion
set of the reversed prefix product: from state T the letter g is legal
iff the simple affine root of g lies outside T, and then leads to
{alpha_g} together with the images of T under g that are again small.
A word is reduced iff every prefix transition is defined, so the
automaton accepts exactly the reduced words, and its reachable states
are exactly the small inversion sets of group elements.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .elements import AffineWeylGroup
from .lowness import DEFAULT_BUDGET, BudgetExceededError, SmallRoots
from .signtypes import sign_string


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
        """Sign-type-style encoding of each state's small root set."""
        return tuple(sign_string(self.small.signs_from_mask(mask))
                     for mask in self.states)

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
    first; raises ``BudgetExceededError`` once the states exceed ``budget``."""
    system = group.system
    if small is None:
        small = SmallRoots(group)
    letters = list(range(system.rank + 1))
    letter_bit = [small.index[group.simple_affine_root(g)] for g in letters]
    letter_image: list[list[int | None]] = []
    for g in letters:
        gen = group.generators[g]
        images: list[int | None] = []
        for beta in small.roots:
            moved = group.act_on_affine_root(gen, beta)
            images.append(small.index.get(moved))
        letter_image.append(images)

    index = {0: 0}
    states = [0]
    transitions: list[list[int | None]] = []
    frontier = [0]
    while frontier:
        next_frontier = []
        for mask in frontier:
            row: list[int | None] = []
            for g in letters:
                if mask >> letter_bit[g] & 1:
                    row.append(None)
                    continue
                new_mask = 1 << letter_bit[g]
                rest = mask
                while rest:
                    low = rest & -rest
                    image = letter_image[g][low.bit_length() - 1]
                    if image is not None:
                        new_mask |= 1 << image
                    rest ^= low
                if new_mask not in index:
                    if len(states) >= budget:
                        raise BudgetExceededError(
                            budget, "automaton states exceeded the budget")
                    index[new_mask] = len(states)
                    states.append(new_mask)
                    next_frontier.append(new_mask)
                row.append(index[new_mask])
            transitions.append(row)
        frontier = next_frontier
    assert len(transitions) == len(states)
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
    lines = ["digraph reduced_words {", "  rankdir=LR;",
             "  node [shape=circle];"]
    for label in sorted(labels):
        shape = ' [shape=doublecircle]' if set(label) == {"0"} else ""
        lines.append(f'  "{label}"{shape};')
    edges = []
    for state, row in enumerate(automaton.transitions):
        for g, target in enumerate(row):
            if target is not None:
                edges.append((labels[state], g, labels[target]))
    edges.sort(key=lambda e: (e[0], e[1]))
    for source, g, target in edges:
        lines.append(f'  "{source}" -> "{target}" [label="s{g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


_DOT_EDGE = re.compile(r'"([-0+]+)"\s*->\s*"([-0+]+)"\s*\[label="s(\d+)"\]')
_DOT_NODE = re.compile(r'^\s*"([-0+]+)"(?:\s*\[[^]]*\])?;')


def parse_dot(text: str) -> tuple[list[str], dict[tuple[str, int], str]]:
    """Recover node labels and the labelled edge map from export_dot output."""
    labels = []
    edges: dict[tuple[str, int], str] = {}
    for line in text.splitlines():
        edge = _DOT_EDGE.search(line)
        if edge:
            source, target, letter = edge.group(1), edge.group(2), int(edge.group(3))
            key = (source, letter)
            assert key not in edges
            edges[key] = target
            continue
        node = _DOT_NODE.match(line)
        if node:
            labels.append(node.group(1))
    return labels, edges


def transition_table_json(automaton: Automaton) -> dict:
    system = automaton.group.system
    labels = automaton.labels
    order = sorted(range(len(labels)), key=lambda i: labels[i])
    table = {}
    for i in order:
        row = {}
        for g, target in enumerate(automaton.transitions[i]):
            if target is not None:
                row[f"s{g}"] = labels[target]
        table[labels[i]] = row
    return {
        "type": system.cartan_type.family,
        "rank": system.cartan_type.rank,
        "states": len(labels),
        "start": labels[0],
        "transitions": table,
    }
