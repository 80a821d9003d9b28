"""The in-process steps of the ``rank4-enumerate`` workload.

The job, made by ``run.py`` from the seed, names the types and carries
the query words::

    {"low": ["D4"], "automata": {"B4": [[0, 1, 2], ...], ...},
     "sign_types": {"A4": null, "D4": 531441}}

A ``sign_types`` value is the budget passed to ``admissible_sign_types``
(null: its default).  Every call goes through a module attribute
(``lowness.enumerate_low``, not a name imported here), so wrappers
installed by the tracer are seen.  Returns plain facts for ``run.py`` to
check: counts, export digests, the DOT round trip and the query verdicts
against the length oracle, and the wall time of each program call
(``seconds``, keyed ``enumerate_low D4``, ``group B4``,
``build_automaton B4``, ...; ``enumerate_low`` includes building the
group, ``parse_dot`` the round-trip comparison,
``is_reduced`` all of a type's query words; the length oracle is not
timed).
"""
from __future__ import annotations

import hashlib
import json
import time

from shilow import automaton, elements, lowness, rootdata, signtypes


def _group(name: str) -> elements.AffineWeylGroup:
    return elements.AffineWeylGroup(rootdata.root_system(name[0], int(name[1:])))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _round_trip(machine, dot: str) -> bool:
    """The parsed DOT text gives back every state label and every edge."""
    labels, edges = automaton.parse_dot(dot)
    names = [machine.state_label(i) for i in range(len(machine.states))]
    if sorted(labels) != sorted(names):
        return False
    expected = {(names[state], g): names[target]
                for state, row in enumerate(machine.transitions)
                for g, target in enumerate(row) if target is not None}
    return edges == expected


class Timer:
    """Wall time of each program call, keyed ``<call> <type>``."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    def __call__(self, key: str, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.seconds[key] = time.perf_counter() - start
        return result


def run(job: dict) -> dict:
    timed = Timer()
    out: dict = {"low": {}, "automata": {}, "sign_types": {},
                 "seconds": timed.seconds}
    for name in job["low"]:
        low = timed(f"enumerate_low {name}",
                    lambda: lowness.enumerate_low(_group(name)))
        out["low"][name] = len(low)

    for name, words in job["automata"].items():
        group = timed(f"group {name}", _group, name)
        machine = timed(f"build_automaton {name}", automaton.build_automaton, group)
        dot = timed(f"export_dot {name}", automaton.export_dot, machine)
        table = timed(f"transition_table_json {name}", lambda: json.dumps(
            automaton.transition_table_json(machine), indent=2))
        round_trip = timed(f"parse_dot {name}", _round_trip, machine, dot)
        verdicts = timed(f"is_reduced {name}", lambda: [
            machine.is_reduced(tuple(word)) for word in words])
        disagree = sum(verdict != (group.element_from_word(word).length == len(word))
                       for verdict, word in zip(verdicts, words))
        out["automata"][name] = {
            "states": len(machine.states),
            "dot_sha256": _sha256(dot),
            "json_sha256": _sha256(table),
            "round_trip": round_trip,
            "words": len(words),
            "disagree": disagree,
        }

    for name, budget in job["sign_types"].items():
        system = rootdata.root_system(name[0], int(name[1:]))
        kwargs = {} if budget is None else {"budget": budget}
        found = timed(f"admissible_sign_types {name}",
                      signtypes.admissible_sign_types, system, **kwargs)
        out["sign_types"][name] = len(found)
    return out
