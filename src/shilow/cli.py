"""Command-line interface for building, enumerating, verifying, exporting.

Subcommands
-----------
roots       print the finite root system data for a Cartan type
enumerate   list low elements, Shi regions, dominant regions, or poset ideals
verify      run a verification suite and report pass/fail with counterexamples
automaton   export the reduced-word automaton (DOT, JSON, or a text summary)

Exit codes: 0 success (all selected checks passed), 1 verification failure
(or a kernel fault, a failed cone certificate or an inconsistent root datum
outside any check), 2 usage error, 3 budget exceeded, 4 a certified
enumeration failed its own cross-check (``CertificationError``).

Process cost.  A command runs in a short process whose imported modules,
tables and interned objects all live until exit.  ``main`` therefore
freezes the heap it finds (``gc.freeze()``, once per process): the
import-time objects move to the permanent generation, which neither the
cyclic collector nor the shutdown collection traverses.  Objects a
command creates afterwards, garbage cycles included, are still collected
as usual.  Importing this module changes no collector state; only a call
of ``main`` does.  The import itself stays lean: the package's records
are plain classes, so no process loads ``dataclasses`` (with ``inspect``
and its chain) or generates methods with ``exec``, and ``csv`` is
imported by the CSV exports alone.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import sys
from collections.abc import Iterable
from itertools import islice

from . import automaton as automaton_mod
from . import regions as regions_mod
from . import signtypes, verify
from .elements import KernelError, word_text
from .lowness import (DEFAULT_BUDGET, BudgetExceededError, CertificationError,
                      ball_within_budget, sign_of_shi)
from .ratlp import CertificateError
from .rootdata import RootDataError, root_system
from .signtypes import sign_string

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_CERTIFICATION = 4

_ENUM_TARGETS = ("low", "regions", "dominant", "ideals")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shilow",
        description="Low elements, Shi regions and the reduced-word automaton "
                    "of an irreducible affine Weyl group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_roots = sub.add_parser(
        "roots", help="print positive roots, exponents, and rank-2 subsystems")
    _add_type_rank(p_roots)
    _add_output(p_roots, formats=("text", "json"))

    p_enum = sub.add_parser(
        "enumerate", help="enumerate low elements, regions, or ideals")
    p_enum.add_argument("what", choices=_ENUM_TARGETS,
                        help="which family of objects to list")
    _add_type_rank(p_enum)
    _add_budget(p_enum)
    _add_output(p_enum, formats=("text", "json", "csv"))

    p_verify = sub.add_parser(
        "verify", help="run a verification suite; exit 0 iff every check passes")
    p_verify.add_argument("suite", choices=verify.SUITES,
                          help="which property suite to run")
    _add_type_rank(p_verify)
    p_verify.add_argument("--bound", type=positive_int, default=None,
                          help="exhaustive length of the recurrences and automaton "
                               "suites (default: by rank); the others read no bound")
    _add_budget(p_verify)
    p_verify.add_argument("--seed", type=int, default=None,
                          help="seed of the automaton suite's sampled words "
                               "(default: 0); the others read no seed")
    _add_output(p_verify, formats=("text", "json"))

    p_auto = sub.add_parser(
        "automaton", help="build and export the reduced-word automaton")
    _add_type_rank(p_auto)
    p_auto.add_argument("--bound", type=positive_int, default=None,
                        help="length the text summary counts to (default: 8)")
    _add_budget(p_auto)
    _add_output(p_auto, formats=("dot", "json", "text"), default="dot")

    return parser


def _add_type_rank(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--type", dest="family", default="A", metavar="LETTER",
                        help="Cartan family letter (default: A)")
    parser.add_argument("--rank", type=int, default=2,
                        help="rank of the finite root system (default: 2)")


def positive_int(text: str) -> int:
    """Argument type for ``--bound`` and ``--budget``: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--budget", type=positive_int, default=DEFAULT_BUDGET,
                        help="element budget of the enumerations "
                             f"(default: {DEFAULT_BUDGET})")


def _add_output(parser: argparse.ArgumentParser,
                formats: tuple[str, ...], default: str = "text") -> None:
    parser.add_argument("--format", choices=formats, default=default,
                        help=f"output format (default: {default})")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write output to a file instead of stdout")


def _emit(text: str, output: str | None) -> None:
    _emit_chunks((text,), output)


def _emit_chunks(chunks: Iterable[str], output: str | None) -> None:
    """Write the chunks as they are produced, to the file ``output`` or
    else to the ``sys.stdout`` of the moment, ending with a newline."""
    if not output:
        _write_chunks(sys.stdout, chunks)
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            _write_chunks(handle, chunks)
    except OSError as exc:
        raise ValueError(f"cannot write {output}: {exc.strerror}") from exc


def _write_chunks(stream: io.TextIOBase, chunks: Iterable[str]) -> None:
    last = ""
    for chunk in chunks:
        stream.write(chunk)
        last = chunk or last
    if not last.endswith("\n"):
        stream.write("\n")


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def cmd_roots(args: argparse.Namespace) -> int:
    system = root_system(args.family, args.rank)
    if args.format == "json":
        data = system.to_json_dict()
        data["rank2_subsystems"] = [
            {"kind": sub.kind,
             "roots": [system.root_name(p) for p in sub.positions]}
            for sub in system.rank2_subsystems()
        ]
        data["rank2_tables"] = signtypes.rank2_tables_json()
        _emit(json.dumps(data, indent=2), args.output)
        return EXIT_PASS
    lines = [f"root system {system.cartan_type.name}: "
             f"{system.nroots} positive roots"]
    for i, root in enumerate(system.positive_roots):
        lines.append(f"  [{i}] {system.root_name(i)} = {root}")
    lines.append(f"highest root: {system.root_name(system.highest_index)}")
    lines.append(f"coxeter number h = {system.coxeter_number}")
    lines.append("exponents: " + ", ".join(map(str, system.exponents)))
    lines.append(f"weyl group order: {system.weyl_order}")
    lines.append(f"catalan number: {system.catalan_number}")
    lines.append(f"shi regions (h+1)^n: {system.region_count}")
    lines.append("rank-2 subsystems:")
    for sub in system.rank2_subsystems():
        names = ", ".join(system.root_name(p) for p in sub.positions)
        lines.append(f"  {sub.kind}: {names}")
    _emit("\n".join(lines), args.output)
    return EXIT_PASS


def cmd_enumerate(args: argparse.Namespace) -> int:
    ctx = verify.desk_context(args.family, args.rank, args.budget)
    if args.what == "low":
        return _enumerate_low(args, ctx)
    table = ctx.table
    if args.what == "regions":
        return _enumerate_regions(args, table, table.regions, "regions")
    if args.what == "dominant":
        return _enumerate_regions(args, table, table.dominant_regions(),
                                  "dominant regions")
    return _enumerate_ideals(args, ctx.system, table)


def _enumerate_low(args: argparse.Namespace, ctx: verify.DeskContext) -> int:
    group, low = ctx.group, ctx.low
    name = group.system.cartan_type.name
    if args.format == "json":
        entries = []
        for w in low:
            entry = group.element_json(w)
            entry["length"] = w.length
            entry["sign_type"] = sign_string(sign_of_shi(w.shi))
            entries.append(entry)
        _emit(json.dumps({"type": name, "rank": group.system.rank,
                          "count": len(low), "elements": entries}, indent=2),
              args.output)
        return EXIT_PASS
    rows = [[word_text(group.word_from_element(w)), str(w.length),
             sign_string(sign_of_shi(w.shi))] for w in low]
    if args.format == "csv":
        _emit(_csv_text([["word", "length", "sign_type"], *rows]), args.output)
        return EXIT_PASS
    lines = [f"{word:<24} length {length:>2}  sign {sign}"
             for word, length, sign in rows]
    lines.append(f"low elements of affine {name}: {len(low)}")
    _emit("\n".join(lines), args.output)
    return EXIT_PASS


def _enumerate_regions(args: argparse.Namespace, table, regions,
                       label: str) -> int:
    name = table.group.system.cartan_type.name
    if args.format == "json":
        _emit(json.dumps(regions_mod.region_json_dict(table, regions), indent=2),
              args.output)
        return EXIT_PASS
    header, *body = regions_mod.region_csv_rows(table, regions)
    if args.format == "csv":
        _emit(_csv_text([header, *body]), args.output)
        return EXIT_PASS
    lines = [f"sign {row[0]}  min {row[3]:<24} length {row[4]:>2}  "
             f"dominant {row[5]}" for row in body]
    lines.append(f"{label} of affine {name}: {len(body)}")
    _emit("\n".join(lines), args.output)
    return EXIT_PASS


def _enumerate_ideals(args: argparse.Namespace, system, table) -> int:
    data = regions_mod.ideal_bijection_json(system, table)
    if args.format == "json":
        _emit(json.dumps(data, indent=2), args.output)
        return EXIT_PASS
    rows = [[" ".join(p["antichain"]) or "-", " ".join(p["ideal"]) or "-",
             p["sign_type"], word_text(p["minimal_word"])]
            for p in data["pairs"]]
    if args.format == "csv":
        _emit(_csv_text([["antichain", "ideal", "sign_type", "minimal_word"],
                         *rows]), args.output)
        return EXIT_PASS
    lines = [f"antichain {{{r[0]}}}  ideal {{{r[1]}}}  sign {r[2]}  min {r[3]}"
             for r in rows]
    lines.append(f"root poset ideals of {system.cartan_type.name}: "
                 f"{data['count']}")
    _emit("\n".join(lines), args.output)
    return EXIT_PASS


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify.run_suite(args.suite, args.family, args.rank,
                              bound=args.bound, budget=args.budget, seed=args.seed)
    if args.format == "json":
        _emit(report.to_json(), args.output)
    else:
        _emit(report.to_text(), args.output)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_automaton(args: argparse.Namespace) -> int:
    ctx = verify.desk_context(args.family, args.rank, args.budget)
    machine = ctx.machine
    if args.format == "dot":
        _emit_chunks(automaton_mod.dot_chunks(machine), args.output)
        return EXIT_PASS
    if args.format == "json":
        _emit_chunks(automaton_mod.json_chunks(machine), args.output)
        return EXIT_PASS
    # Several reduced words may spell one element, so the two counts
    # differ from length 2 on.
    bound = args.bound if args.bound is not None else 8
    ball_within_budget(ctx.system, bound, ctx.budget, "ball walk")
    elements = [len(shell) for shell in islice(ctx.group.shells(), bound + 1)]
    words = machine.word_counts_by_length(bound)
    name = ctx.system.cartan_type.name
    lines = [
        f"reduced-word automaton for affine {name}: "
        f"{len(machine.states)} states, {len(ctx.group.letters)} letters",
        f"reduced words by length 0..{bound}: "
        + ", ".join(map(str, words)),
        f"group elements by length 0..{bound}: "
        + ", ".join(map(str, elements)),
    ]
    _emit("\n".join(lines), args.output)
    return EXIT_PASS


def _csv_text(rows: list[list[str]]) -> str:
    import csv  # here, not at module level: only CSV exports read it

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


_COMMANDS = {
    "roots": cmd_roots,
    "enumerate": cmd_enumerate,
    "verify": cmd_verify,
    "automaton": cmd_automaton,
}


def main(argv: list[str] | None = None) -> int:
    # Everything imported so far lives until the process exits, so neither
    # the cyclic collector nor the interpreter's shutdown collection needs
    # to walk it again: move it to the permanent generation, once per
    # process.  What a command creates is still collected as usual.
    if gc.get_freeze_count() == 0:
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (KernelError, CertificateError, RootDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except CertificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except ValueError as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
