#!/usr/bin/env python3
"""Print a digest of the stdout of every call of one benchmark workload.

Usage: python3 scripts/stdout_digest.py WORKLOAD SEED [--src DIR]

Builds the workload's plan with `bench/workloads.py` (read only), writes its
structure files to a temporary directory, runs each call there through
`gamecomonads.cli.main` and prints one line per call:

    index exit-code sha256-of-stdout sha256-of-verdict stdout-bytes

in the plan's order.  The verdict is stdout with the "certificate" of each
JSON line removed, so a change to certificate contents alone leaves that
column as it was; the last column is the length of stdout in UTF-8 bytes.
`--src` runs the library found in another checkout's `src` directory
instead of this one's, so that two versions compare with `diff`:

    python3 scripts/stdout_digest.py modal-games 1 > new.txt
    python3 scripts/stdout_digest.py modal-games 1 --src ../old/src > old.txt
    diff old.txt new.txt
    diff <(cut -d' ' -f1,2,4 old.txt) <(cut -d' ' -f1,2,4 new.txt)
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verdict(stdout: str) -> str:
    """stdout with the "certificate" key dropped from each JSON object line."""
    lines = []
    for line in stdout.splitlines():
        try:
            value = json.loads(line)
        except ValueError:
            value = None
        if isinstance(value, dict):
            value.pop("certificate", None)
            line = json.dumps(value, sort_keys=True)
        lines.append(line)
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the gamecomonads package (default: this checkout's)")
    args = ap.parse_args()

    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "bench")]
    import workloads
    from gamecomonads.cli import main as cli_main

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    plan = workloads.build(args.workload, args.seed)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # calls name their files relative to here, so stdout never holds the path
        paths = {}
        for name, S in plan.files.items():
            paths[name] = f"{name}.json"
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(S, fh)
        for i, call in enumerate(plan.calls):
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                rc = cli_main([paths.get(a, a) for a in call["argv"]])
            text = out.getvalue()
            print(i, rc, sha256(text), sha256(verdict(text)), len(text.encode()))
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
