"""Run the benchmark on several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload desk-suites --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json`` and ``--trace 0``, and prints each
run's metrics and then for every end-to-end metric the median, the
quartiles (``statistics.quantiles(values, n=4)``), the quartile distance
as a share of the median, and the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {}
    failed = 0
    for seed in args.seeds:
        command = spec["command"][1:] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run([sys.executable, *command], cwd=ROOT,
                              capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            failed += 1
            print(f"seed {seed}: exit {proc.returncode} {proc.stderr.strip()[-300:]}")
            continue
        result = json.loads(lines[-1])
        failed += not result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':<44} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, median, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                          else (vals[0],) * 3)
        share = (q3 - q1) / median if median else 0.0
        print(f"{name:<44} {len(vals):>3} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{share:>8.4f} {bounds[name]:>6}")
    print(f"runs failed or incorrect: {failed} of {len(args.seeds)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
