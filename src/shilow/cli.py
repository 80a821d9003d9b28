"""Command-line interface for building, enumerating, verifying, exporting.

Subcommands
-----------
roots       print the finite root system data for a Cartan type
enumerate   list low elements, Shi regions, dominant regions, or poset ideals
verify      run a verification suite and report pass/fail with counterexamples
automaton   export the reduced-word automaton (DOT, JSON, or a text summary)

Exit codes: 0 success (all selected checks passed), 1 verification failure
(or a kernel fault or a failed cone certificate outside any check), 2 usage
error, 3 enumeration budget or length cap exceeded, 4 a certified
enumeration failed its own cross-check (``CertificationError``).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import automaton as automaton_mod
from . import regions as regions_mod
from . import signtypes, verify
from .elements import AffineWeylGroup, KernelError, word_text
from .lowness import (BudgetExceededError, CertificationError, certified_scan,
                      enumerate_low, sign_of_shi)
from .ratlp import CertificateError
from .rootdata import root_system
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
    _add_bound_budget(p_enum)
    _add_output(p_enum, formats=("text", "json", "csv"))

    p_verify = sub.add_parser(
        "verify", help="run a verification suite; exit 0 iff every check passes")
    p_verify.add_argument("suite", choices=verify.SUITES,
                          help="which property suite to run")
    _add_type_rank(p_verify)
    _add_bound_budget(p_verify)
    p_verify.add_argument("--seed", type=int, default=None,
                          help="seed for sampled checks (recorded in the report)")
    _add_output(p_verify, formats=("text", "json"))

    p_auto = sub.add_parser(
        "automaton", help="build and export the reduced-word automaton")
    _add_type_rank(p_auto)
    _add_bound_budget(p_auto)
    _add_output(p_auto, formats=("dot", "json", "text"), default="dot")

    return parser


def _add_type_rank(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--type", dest="family", default="A", metavar="LETTER",
                        help="Cartan family letter (default: A)")
    parser.add_argument("--rank", type=int, default=2,
                        help="rank of the finite root system (default: 2)")


def positive_int(text: str) -> int:
    """Argument type for ``--bound``: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_bound_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bound", type=positive_int, default=None,
                        help="optional length cap on enumeration scans; scans "
                             "self-certify, so this is a safety limit only")
    parser.add_argument("--budget", type=int, default=None,
                        help="element budget for enumeration "
                             f"(default: ${verify.BUDGET_ENV_VAR} or "
                             f"{verify.DEFAULT_BUDGET})")


def _add_output(parser: argparse.ArgumentParser,
                formats: tuple[str, ...], default: str = "text") -> None:
    parser.add_argument("--format", choices=formats, default=default,
                        help=f"output format (default: {default})")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write output to a file instead of stdout")


def _emit(text: str, output: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {output}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _system(args: argparse.Namespace):
    return root_system(args.family, args.rank)


def cmd_roots(args: argparse.Namespace) -> int:
    system = _system(args)
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
    system = _system(args)
    group = AffineWeylGroup(system)
    budget = verify.resolve_budget(args.budget)
    scan = certified_scan(group, budget=budget, max_length=args.bound)
    if args.what == "low":
        return _enumerate_low(args, group, budget, scan)
    table = regions_mod.enumerate_regions(group, scan=scan)
    if args.what == "regions":
        return _enumerate_regions(args, table, table.regions, "regions")
    if args.what == "dominant":
        return _enumerate_regions(args, table, table.dominant_regions(),
                                  "dominant regions")
    return _enumerate_ideals(args, system, table)


def _enumerate_low(args: argparse.Namespace, group: AffineWeylGroup,
                   budget: int, scan) -> int:
    low = enumerate_low(group, budget=budget, certificate_scan=scan)
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
    _system(args)  # validate type/rank before spending time
    report = verify.run_suite(args.suite, args.family, args.rank,
                              bound=args.bound, budget=args.budget, seed=args.seed)
    if args.format == "json":
        _emit(report.to_json(), args.output)
    else:
        _emit(report.to_text(), args.output)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_automaton(args: argparse.Namespace) -> int:
    system = _system(args)
    group = AffineWeylGroup(system)
    machine = automaton_mod.build_automaton(
        group, budget=verify.resolve_budget(args.budget))
    if args.format == "dot":
        _emit(automaton_mod.export_dot(machine), args.output)
        return EXIT_PASS
    if args.format == "json":
        _emit(json.dumps(automaton_mod.transition_table_json(machine),
                         indent=2), args.output)
        return EXIT_PASS
    bound = args.bound if args.bound is not None else 8
    words, elements = automaton_mod.count_by_length(machine, bound)
    name = system.cartan_type.name
    lines = [
        f"reduced-word automaton for affine {name}: "
        f"{len(machine.states)} states, {len(group.letters)} letters",
        f"reduced words by length 0..{bound}: "
        + ", ".join(map(str, words)),
        f"group elements by length 0..{bound}: "
        + ", ".join(map(str, elements)),
    ]
    _emit("\n".join(lines), args.output)
    return EXIT_PASS


def _csv_text(rows: list[list[str]]) -> str:
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (KernelError, CertificateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except CertificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except ValueError as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
