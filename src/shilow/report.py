"""Structured pass/fail reports shared by the verification suites and the CLI."""

from __future__ import annotations

import json


class Check:
    """One named verification step.

    ``counterexample`` holds a JSON-serializable witness for a failure (or
    ``None``), ``detail`` optional extra payload for passing checks that
    still carry information (inferred layouts, flagged readings, ...).
    """

    __slots__ = ("name", "status", "counterexample", "detail")

    def __init__(self, name: str, status: str, counterexample: dict | None = None,
                 detail: dict | None = None):
        self.name = name
        self.status = status  # "pass" | "fail"
        self.counterexample = counterexample
        self.detail = detail

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class Report:
    __slots__ = ("suite", "family", "rank", "bound", "seed", "checks")

    def __init__(self, suite: str, family: str, rank: int, bound: int | None = None,
                 seed: int | None = None, checks: list[Check] | None = None):
        self.suite = suite
        self.family = family
        self.rank = rank
        self.bound = bound
        self.seed = seed
        self.checks = [] if checks is None else checks

    def add(self, name: str, ok: bool, counterexample: dict | None = None,
            detail: dict | None = None) -> Check:
        check = Check(name, "pass" if ok else "fail",
                      None if ok else counterexample, detail)
        self.checks.append(check)
        return check

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        out: dict = {
            "suite": self.suite,
            "type": self.family,
            "rank": self.rank,
            "bound": self.bound,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        checks = []
        for c in self.checks:
            entry: dict = {"name": c.name, "status": c.status}
            if c.counterexample is not None:
                entry["counterexample"] = c.counterexample
            if c.detail is not None:
                entry["detail"] = c.detail
            checks.append(entry)
        out["checks"] = checks
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = [f"suite {self.suite} ({self.family}{self.rank}"
                 + (f", bound {self.bound}" if self.bound is not None else "")
                 + ")"]
        for c in self.checks:
            lines.append(f"  [{'PASS' if c.passed else 'FAIL'}] {c.name}")
            if c.counterexample:
                lines.append(f"         counterexample: {c.counterexample}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)
