"""Command-line interface for building, enumerating, verifying, exporting.

Subcommands
-----------
roots       print the finite root system data for a Cartan type
enumerate   list low elements, Shi regions, dominant regions, or poset ideals
verify      run a verification suite and report pass/fail with counterexamples
automaton   export the reduced-word automaton (DOT, JSON, or a text summary)

Exit codes: 0 success (all selected checks passed), 1 verification failure
(or a kernel fault, a failed cone certificate or an inconsistent root datum
outside any check), 2 usage error (also a failed write to ``--output``
or to standard output), 3 budget exceeded, 4 a certified enumeration
failed its own cross-check (``CertificationError``), 141 standard output
was a pipe whose reader closed it (quietly, as a shell writer killed by
SIGPIPE would end).

Listings.  ``enumerate`` writes its four targets through one path: each
target builds its JSON entries once (``regions.region_entries``,
``regions.ideal_entries``, or the elements ``lowness.enumerate_low``
returns, in its order), and one row function per target reads the CSV
cells and the text fields off those entries, so the JSON envelope, the
CSV writer and the text footer are each written once.

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
import os
import sys
from collections.abc import Iterable
from itertools import islice

from . import automaton as automaton_mod
from . import regions as regions_mod
from . import signtypes, verify
from .elements import KernelError, word_text
from .lowness import (DEFAULT_BUDGET, BudgetExceededError, CertificationError,
                      ball_within_budget, enumerate_low, sign_of_shi)
from .ratlp import CertificateError
from .rootdata import RootDataError, root_system
from .signtypes import sign_string

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_CERTIFICATION = 4
EXIT_PIPE = 141  # the shell's status for a writer whose pipe closed


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
    p_enum.add_argument("what", choices=tuple(_LISTINGS),
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
        try:
            _write_chunks(sys.stdout, chunks)
            sys.stdout.flush()  # a failed write surfaces here, not at exit
        except BrokenPipeError:
            raise  # the reader has gone: ``main`` ends quietly
        except OSError as exc:
            raise ValueError(f"cannot write standard output: {exc.strerror}") from exc
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


def _entries(what: str, ctx: verify.DeskContext) -> list[dict]:
    """The JSON entries of one ``enumerate`` target."""
    if what == "low":
        group = ctx.group
        return [{**group.element_json(w), "length": w.length,
                 "sign_type": sign_string(sign_of_shi(w.shi))}
                for w in enumerate_low(group, ctx.budget)]
    table = ctx.table
    if what == "ideals":
        return regions_mod.ideal_entries(ctx.system, table)
    regions = table.regions if what == "regions" else table.dominant_regions()
    return regions_mod.region_entries(table, regions)


def _low_cells(entry: dict) -> list[str]:
    return [word_text(entry["word"]), str(entry["length"]), entry["sign_type"]]


def _region_cells(entry: dict) -> list[str]:
    return [entry["sign_type"], " ".join(entry["separation"]),
            " ".join(entry["descent_roots"]), word_text(entry["minimal_word"]),
            str(len(entry["minimal_word"])), "yes" if entry["dominant"] else "no"]


def _ideal_cells(entry: dict) -> list[str]:
    return [" ".join(entry["antichain"]) or "-", " ".join(entry["ideal"]) or "-",
            entry["sign_type"], word_text(entry["minimal_word"])]


# Per target: the JSON list key, the CSV header, the cells of one entry,
# the text line over those cells, and the text footer before the type.
_REGION_LISTING = ("regions", "sign_type separation descent_roots minimal_word "
                   "length dominant", _region_cells,
                   "sign {0}  min {3:<24} length {4:>2}  dominant {5}")
_LISTINGS = {
    "low": ("elements", "word length sign_type", _low_cells,
            "{0:<24} length {1:>2}  sign {2}", "low elements of affine"),
    "regions": (*_REGION_LISTING, "regions of affine"),
    "dominant": (*_REGION_LISTING, "dominant regions of affine"),
    "ideals": ("pairs", "antichain ideal sign_type minimal_word", _ideal_cells,
               "antichain {{{0}}}  ideal {{{1}}}  sign {2}  min {3}",
               "root poset ideals of"),
}


def cmd_enumerate(args: argparse.Namespace) -> int:
    ctx = verify.desk_context(args.family, args.rank, args.budget)
    kind = ctx.system.cartan_type
    key, header, cells, line, footer = _LISTINGS[args.what]
    entries = _entries(args.what, ctx)
    if args.format == "json":
        # The low listing names its type in full ("A2"), the others by family.
        data = {"type": kind.name if args.what == "low" else kind.family,
                "rank": kind.rank, "count": len(entries), key: entries}
        _emit(json.dumps(data, indent=2), args.output)
        return EXIT_PASS
    rows = [cells(entry) for entry in entries]
    if args.format == "csv":
        _emit(_csv_text([header.split(), *rows]), args.output)
    else:
        lines = [line.format(*row) for row in rows]
        lines.append(f"{footer} {kind.name}: {len(rows)}")
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
    except BrokenPipeError:
        # The reader has gone.  Point fd 1 at the null device, so that the
        # interpreter's flush at exit has nowhere to fail, and exit quietly.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
