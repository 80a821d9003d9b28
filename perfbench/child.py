"""One fresh interpreter of a benchmark run.

    python3 perfbench/child.py [--trace] cli <shilow arguments...>
    python3 perfbench/child.py [--trace] rank4 < job.json
    python3 perfbench/child.py probe

``cli`` runs ``shilow.cli.main`` with the given arguments, exactly as the
``shilow`` console script does; ``rank4`` runs the in-process
``rank4-enumerate`` steps; ``probe`` only imports.  Set-up ends when
``import shilow.cli`` returns.  The last line on standard error is
``PERFBENCH-CHILD`` followed by a JSON record of the monotonic clock at
that moment and at exit, plus the trace when ``--trace`` is given.
"""
import sys
import time

import shilow.cli

READY = time.monotonic()

import json  # noqa: E402  (after the set-up mark on purpose)

MARKER = "PERFBENCH-CHILD"


def main(argv: list[str]) -> int:
    tracer = None
    if argv and argv[0] == "--trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        argv = argv[1:]
    mode, rest = argv[0], argv[1:]
    code = 0
    try:
        if mode == "cli":
            code = shilow.cli.main(rest)
        elif mode == "rank4":
            from rank4 import run
            json.dump(run(json.load(sys.stdin)), sys.stdout)
            sys.stdout.write("\n")
        elif mode != "probe":
            raise SystemExit(f"unknown child mode {mode!r}")
    finally:
        sys.stdout.flush()
        record = {"ready": READY, "end": time.monotonic(),
                  "trace": tracer.dump() if tracer else None}
        sys.stderr.write(f"\n{MARKER} {json.dumps(record)}\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
