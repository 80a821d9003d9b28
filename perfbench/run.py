"""Benchmark runner for shilow: runs one workload, checks it, prints metrics.

    python3 perfbench/run.py --workload certify-b3 --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  All load comes from this process, which starts at most one
child interpreter at a time (``perfbench/child.py``) and waits for it.
Workload iterations repeat, closed loop, while the next one is expected
to end within ``--seconds`` (at least one runs); ``wall_s`` sums each
operation's fastest time over the iterations.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs one untraced and one traced
iteration and prints the per-layer metrics of the traced one.  The last
line of standard output is the result object; the line before it holds
the environment record and the per-iteration samples.  See
``perfbench/README.md`` for every metric.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
TRACE_DIR = HERE / "traces"
MARKER = "PERFBENCH-CHILD"

# Every run must end within this many seconds, child processes included.
RUN_DEADLINE_S = 170.0
# Set-up probes after each iteration, so that they spread over the run.
SETUP_PROBES = 4

DESK_TYPES = (("A", 2), ("B", 2), ("G", 2), ("A", 3))
SUITES = ("main-theorem", "descent-walls", "recurrences", "automaton", "tables")
AUTOMATON_TYPES = (("B", 4), ("C", 4), ("D", 4), ("F", 4), ("A", 5))
# The calls rank4.py times for each automaton type.
AUTOMATON_CALLS = ("group", "build_automaton", "export_dot", "transition_table_json",
                   "parse_dot", "is_reduced")
QUERY_WORDS_PER_TYPE = 400
QUERY_MAX_LENGTH = 18

# Coxeter numbers h of the types whose counts are checked; the number of
# Shi regions, low elements and automaton states is (h+1)^n.
COXETER = {"A4": 5, "A5": 6, "B4": 8, "C4": 8, "D4": 6, "F4": 12}

# The types whose certified_scan a traced run must see and check against
# the counters in expected.json; rank4-enumerate scans none of its types.
REQUIRED_SCANS = {"certify-b3": ("B3",),
                  "desk-suites": ("A2", "B2", "G2", "A3"), "rank4-enumerate": ()}


def region_count(name: str) -> int:
    return (COXETER[name] + 1) ** int(name[1:])


class Failure(Exception):
    """A benchmark precondition that makes a result meaningless."""


# --------------------------------------------------------------------------
# Children
# --------------------------------------------------------------------------

class Child:
    """The outcome of one child interpreter."""

    def __init__(self, started: float, proc: subprocess.CompletedProcess | None):
        self.started = started
        self.finished = time.monotonic()
        self.returncode = None if proc is None else proc.returncode
        self.stdout = "" if proc is None else proc.stdout
        self.stderr = "" if proc is None else proc.stderr
        self.record = None
        for line in reversed(self.stderr.splitlines()):
            if line.startswith(MARKER + " "):
                try:
                    self.record = json.loads(line[len(MARKER) + 1:])
                except json.JSONDecodeError:
                    pass
                break

    @property
    def setup_s(self) -> float | None:
        return None if self.record is None else self.record["ready"] - self.started

    @property
    def op_s(self) -> float | None:
        """From the end of set-up until the parent saw the child exit."""
        return None if self.record is None else self.finished - self.record["ready"]

    @property
    def trace(self) -> dict | None:
        return None if self.record is None else self.record["trace"]

    def problem(self) -> str | None:
        if self.returncode is None:
            return "timed out"
        if self.returncode != 0:
            tail = [line for line in self.stderr.splitlines()
                    if line.strip() and not line.startswith(MARKER)][-3:]
            return f"exit {self.returncode}: {' | '.join(tail)}"
        if self.record is None:
            return "no child record on stderr"
        return None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # The program's budget override and optimisation flag would change the
    # workload; certificates are asserts today, so -O would strip them.
    env.pop("SHILOW_BUDGET", None)
    env.pop("PYTHONOPTIMIZE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], deadline: float, stdin: str | None = None,
              trace: bool = False) -> Child:
    argv = [sys.executable, str(CHILD)] + (["--trace"] if trace else []) + args
    started = time.monotonic()
    if started >= deadline:
        return Child(started, None)
    try:
        proc = subprocess.run(argv, input=stdin, capture_output=True, text=True,
                              cwd=ROOT, env=child_env(), timeout=deadline - started)
    except subprocess.TimeoutExpired:
        return Child(started, None)
    return Child(started, proc)


# --------------------------------------------------------------------------
# Workloads: each yields (operation name, problems, {timed call: seconds})
# per checked operation
# --------------------------------------------------------------------------

def check_report(child: Child, suite: str, family: str, rank: int,
                 expected: dict) -> list[str]:
    problem = child.problem()
    if problem:
        return [problem]
    try:
        report = json.loads(child.stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    problems = []
    named = (report.get("suite"), report.get("type"), report.get("rank"))
    if named != (suite, family, rank):
        problems.append("report names another suite or type")
    names = [c.get("name") for c in report.get("checks", [])]
    problems += [f"check {c.get('name')} is {c.get('status')}"
                 for c in report.get("checks", []) if c.get("status") != "pass"]
    missing = set(expected["checks"][f"{suite} {family}{rank}"]) - set(names)
    problems += [f"check {name} missing" for name in sorted(missing)]
    return problems


def verify_ops(invocations, seed: int, deadline: float, trace: bool,
               expected: dict, children: list):
    for suite, family, rank in invocations:
        args = ["cli", "verify", suite, "--type", family, "--rank", str(rank),
                "--format", "json"]
        if suite == "automaton":
            args += ["--seed", str(seed)]
        child = run_child(args, deadline, trace=trace)
        children.append(child)
        name = f"verify {suite} {family}{rank}"
        yield (name, check_report(child, suite, family, rank, expected),
               {} if child.op_s is None else {name: child.op_s})


def rank4_enumerate(job, seed, deadline, trace, expected, children):
    child = run_child(["rank4"], deadline, stdin=json.dumps(job), trace=trace)
    children.append(child)
    problem = child.problem()
    try:
        facts = None if problem else json.loads(child.stdout)
    except json.JSONDecodeError as exc:
        problem = f"output is not JSON: {exc}"
    if problem:
        yield "rank4 process", [problem], {}
        return
    seconds = facts["seconds"]
    for name in job["low"]:
        key = f"enumerate_low {name}"
        yield key, _count_problems(name, facts["low"].get(name)), {key: seconds[key]}
    for name, words in job["automata"].items():
        info = facts["automata"].get(name)
        if info is None:
            yield f"automaton {name}", ["missing"], {}
            continue
        problems = _count_problems(name, info["states"])
        want = expected["exports"][name]
        problems += [f"{key} differs" for key in ("dot_sha256", "json_sha256")
                     if info[key] != want[key]]
        if not info["round_trip"]:
            problems.append("DOT round trip lost states or edges")
        if info["words"] != len(words):
            problems.append(f"{info['words']} of {len(words)} words answered")
        if info["disagree"]:
            problems.append(f"{info['disagree']} is_reduced verdicts disagree "
                            "with the length oracle")
        yield f"automaton {name}", problems, {
            f"{call} {name}": seconds[f"{call} {name}"] for call in AUTOMATON_CALLS}
    for name in job["sign_types"]:
        key = f"admissible_sign_types {name}"
        yield key, _count_problems(name, facts["sign_types"].get(name)), {
            key: seconds[key]}


def _count_problems(name: str, count: int | None) -> list[str]:
    if count == region_count(name):
        return []
    return [f"{name}: {count} != (h+1)^n = {region_count(name)}"]


def make_inputs(workload: str, seed: int):
    rng = random.Random(seed)
    if workload == "certify-b3":
        return [("main-theorem", "B", 3), ("tables", "B", 3)]
    if workload == "desk-suites":
        invocations = [(suite, family, rank) for family, rank in DESK_TYPES
                       for suite in SUITES]
        rng.shuffle(invocations)
        return invocations
    automata = {}
    for family, rank in AUTOMATON_TYPES:
        batch = []
        for _ in range(QUERY_WORDS_PER_TYPE):
            # No letter twice in a row, so that many words are reduced.
            word = [rng.randrange(rank + 1)]
            for _ in range(rng.randint(1, QUERY_MAX_LENGTH) - 1):
                word.append(rng.choice([g for g in range(rank + 1) if g != word[-1]]))
            batch.append(word)
        automata[f"{family}{rank}"] = batch
    return {"low": ["D4"], "automata": automata,
            "sign_types": {"A4": None, "D4": 3 ** 12}}


WORKLOADS = {
    "certify-b3": verify_ops,
    "desk-suites": verify_ops,
    "rank4-enumerate": rank4_enumerate,
}


# --------------------------------------------------------------------------
# Iterations
# --------------------------------------------------------------------------

class Iteration:
    """One pass over the workload's inputs, with its checked operations."""

    def __init__(self, workload, inputs, seed, deadline, trace, expected):
        self.children: list[Child] = []
        start = time.monotonic()
        self.ops: list[tuple[str, list[str], float | None]] = list(WORKLOADS[workload](
            inputs, seed, deadline, trace, expected, self.children))
        self.elapsed = time.monotonic() - start
        self.op_s = {key: s for _, _, timed in self.ops for key, s in timed.items()}
        self.wall_s = sum(self.op_s.values())
        self.timed_out = any(c.returncode is None for c in self.children)


def setup_probe(deadline: float) -> float:
    child = run_child(["probe"], deadline)
    problem = child.problem()
    if problem:
        raise Failure(f"set-up probe failed: {problem}")
    return child.setup_s


# --------------------------------------------------------------------------
# Per-layer metrics from the traced iteration
# --------------------------------------------------------------------------

SPAN_TIMES = ("lowness.certified_scan", "lowness.enumerate_low",
              "verify.desk_context", "signtypes.admissible_sign_types",
              "automaton.build_automaton", "automaton.export_dot",
              "automaton.parse_dot", "automaton.transition_table_json",
              "regions.enumerate_regions", "rootdata.root_system", "cli.main")
HOT_TIMES = ("elements.multiply", "ratlp.in_cone", "lowness.is_low_by_cone")
CALL_COUNTS = ("lowness.certified_scan", "elements.multiply", "ratlp.in_cone",
               "lowness.is_low", "lowness.is_low_by_cone",
               "automaton.is_reduced")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    spans = [s for t in traces for s in t["spans"]]
    counts, inclusive = {}, {}
    self_time = dict.fromkeys(LAYERS, 0.0)
    for t in traces:
        for key, value in t["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in t["inclusive"].items():
            inclusive[key] = inclusive.get(key, 0.0) + value
        for key, value in t["self"].items():
            self_time[key] += value

    def spans_named(name):
        return [s for s in spans if s[2] == name]

    m: dict[str, float] = {}
    for key in SPAN_TIMES + HOT_TIMES:
        m[f"{key}.s"] = inclusive.get(key, 0.0)
    for key in CALL_COUNTS:
        m[f"{key}.calls"] = counts.get(key, 0)
    m["elements.GroupElement.built"] = counts.get("elements.GroupElement", 0)

    scans = [s[6] for s in spans_named("lowness.certified_scan")]
    m["lowness.certified_scan.visited"] = sum(a["visited"] for a in scans)
    m["lowness.certified_scan.stop_length"] = max((a["stop_length"] for a in scans),
                                                  default=0)
    m["lowness.certified_scan.useful_ratio"] = _ratio(
        sum(a["regions"] for a in scans), m["lowness.certified_scan.visited"])

    lows = spans_named("lowness.enumerate_low")
    m["lowness.enumerate_low.useful_ratio"] = _ratio(
        sum(s[6]["low"] for s in lows),
        sum(s[7].get("lowness.is_low", 0) for s in lows))

    m["verify.desk_context.builds"] = sum(
        1 for s in spans_named("verify.desk_context")
        if s[7].get("lowness.certified_scan", 0) > 0)
    for suite in SUITES:
        runs = spans_named(f"verify.{suite}")
        m[f"verify.{suite}.s"] = sum(s[4] - s[3] for s in runs)
        m[f"verify.{suite}.checks"] = sum(s[6]["checks"] for s in runs)

    # Every admissibility test goes through violating_subsystem today, so
    # its calls inside the span are the candidates the enumeration examined.
    sign = spans_named("signtypes.admissible_sign_types")
    m["signtypes.admissible_sign_types.candidates"] = sum(
        s[7].get("signtypes.violating_subsystem", 0) for s in sign)
    m["signtypes.admissible_sign_types.useful_ratio"] = _ratio(
        sum(s[6]["admissible"] for s in sign),
        m["signtypes.admissible_sign_types.candidates"])
    m["automaton.build_automaton.states"] = sum(
        s[6]["states"] for s in spans_named("automaton.build_automaton"))

    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    m["trace.spans"] = len(spans)
    return m


def write_trace(args, traces: list[dict]) -> None:
    """One file per traced run; each process's spans keep their own ids."""
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    processes = [{"process": i, "spans": t["spans"], "counts": t["counts"]}
                 for i, t in enumerate(traces)]
    span_fields = ["id", "parent", "name", "start", "end", "self_s", "attrs", "work"]
    path.write_text(json.dumps({"span_fields": span_fields,
                                "processes": processes}) + "\n", encoding="utf-8")


def baseline_problems(workload: str, traces: list[dict],
                      expected: dict) -> list[str]:
    """Scan counters must equal those recorded at the seed commit, and
    the workload must scan every type it is known to scan."""
    scanned = {span[6]["type"] for t in traces for span in t["spans"]
               if span[2] == "lowness.certified_scan"}
    problems = [f"no certified_scan of {name}"
                for name in REQUIRED_SCANS[workload] if name not in scanned]
    for t in traces:
        for span in t["spans"]:
            if span[2] != "lowness.certified_scan":
                continue
            attrs = span[6]
            want = expected["scans"].get(attrs["type"])
            got = [attrs["visited"], attrs["stop_length"]]
            if want is not None and got != want:
                problems.append(f"{attrs['type']} scan visited/stop_length "
                                f"{got} != {want}")
    return problems


# --------------------------------------------------------------------------
# Environment
# --------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def commit_hash() -> str:
    """HEAD of the checkout's own .git, if it has one; never a parent's."""
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    if head.startswith("ref: "):
        ref = head[5:]
        head = _read(str(ROOT / ".git" / ref)).strip()
        if not head:
            for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    head = line.split()[0]
    return head or "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "shilow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    load = [float(x) for x in _read("/proc/loadavg").split()[:3]] or [0.0]
    nproc = len(os.sched_getaffinity(0))
    return {"python": sys.version.split()[0], "nproc": nproc, "cpu": cpu,
            "loadavg": load, "loaded": load[0] > nproc,
            "commit": commit_hash(), "source_sha256": source_digest()}


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    if sys.flags.optimize:
        raise Failure("run without -O: the program's certificates are asserts")
    if not (ROOT / "src" / "shilow" / "cli.py").is_file():
        raise Failure(f"no shilow sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    env = environment()
    if env["loaded"]:
        print(f"warning: load average {env['loadavg'][0]} exceeds "
              f"{env['nproc']} cores at start", file=sys.stderr)

    inputs = make_inputs(args.workload, args.seed)
    setup_probe(deadline)  # untimed: compiles bytecode, warms the file cache
    probes: list[float] = []

    def iterate(trace: bool) -> Iteration:
        iteration = Iteration(args.workload, inputs, args.seed, deadline, trace,
                              expected)
        probes.extend(setup_probe(deadline) for _ in range(SETUP_PROBES))
        return iteration

    iterations: list[Iteration] = []
    if args.trace:
        iterations.append(iterate(False))
        if not iterations[-1].timed_out:
            iterations.append(iterate(True))
    else:
        # Start another iteration only while it is expected to end within
        # --seconds, so that a run measures at most that long (one
        # iteration always runs, however long it takes).
        stop = min(time.monotonic() + args.seconds, deadline)
        while True:
            iterations.append(iterate(False))
            expected_next = statistics.mean(it.elapsed for it in iterations)
            if iterations[-1].timed_out or time.monotonic() + expected_next > stop:
                break

    ops = [op for it in iterations for op in it.ops]
    if args.trace:
        if len(iterations) < 2 or iterations[-1].timed_out:
            raise Failure("the traced iteration did not finish before the deadline")
        traces = [c.trace for c in iterations[-1].children if c.trace is not None]
        write_trace(args, traces)
        ops.append(("trace baseline counters",
                    baseline_problems(args.workload, traces, expected), {}))
    failed = [(name, problems) for name, problems, _ in ops if problems]
    for name, problems in failed:
        print(f"FAILED {name}: {'; '.join(problems)}", file=sys.stderr)

    per_process = probes + [c.setup_s for it in iterations for c in it.children
                            if c.setup_s is not None]
    processes = len(iterations[0].children)
    op_samples: dict[str, list[float]] = {}
    for it in iterations:
        for name, seconds in it.op_s.items():
            op_samples.setdefault(name, []).append(seconds)
    samples = {"iteration_wall_s": [it.wall_s for it in iterations],
               "op_s": op_samples, "setup_per_process_s": per_process}
    if args.trace:
        metrics = layer_metrics(traces)
        metrics["trace.overhead_s"] = iterations[1].wall_s - iterations[0].wall_s
        wanted = spec["per_layer"]
    else:
        metrics = {
            # Interference from other tenants only ever adds time, so the
            # fastest sample of each operation is the steadiest estimate.
            "wall_s": sum(min(values) for values in op_samples.values()),
            "setup_s": statistics.median(per_process) * processes,
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                            / 1024),
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise Failure(f"metrics not measured: {missing}")

    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "environment": env,
               "iterations": len(iterations), "processes_per_iteration": processes,
               "samples": samples, "operations": len(ops),
               "fail_ratio": len(failed) / len(ops),
               "run_s": time.monotonic() - started}
    print(json.dumps(details))
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
