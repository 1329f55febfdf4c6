#!/usr/bin/env python3
"""Time solving against re-verifying the certificate on four large game cases.

Usage: python3 scripts/verify_cost.py

The cases are large certificates: ef tier 1 on lin(12) vs itself at k=4,
ef tier 2 on lin(15) vs lin(16) at k=4, pebble tier 2 on cycle(8) vs itself
at k=3, and pebble tier 1 on cycle(8) vs the benchmark's relabelled copy
(pebble-games, key "c8-copy") at k=3.  For each it prints the seconds
`equiv.decide` takes (solving and building the certificate) and the seconds
`equiv.verify_certificate` takes on what it returned (both sides at tier 1,
as `check` does), and exits 1 if any re-verification fails or takes more
than twice the solve.  One run each, wall time, so figures from a loaded
machine are noisy.
"""

from __future__ import annotations

import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402  (bench/workloads.py, read only)

from gamecomonads import zoo  # noqa: E402
from gamecomonads.equiv import decide, verify_certificate  # noqa: E402
from gamecomonads.structures import structure_from_dict  # noqa: E402

RATIO = 2.0


def cases():
    C8 = zoo.cycle(8)
    copy = structure_from_dict(workloads.fixed_copy(workloads.cycle(8), "c8-copy",
                                                    random.Random(1)))
    return [("ef tier 1, lin(12) vs lin(12), k=4", "ef", 1, zoo.lin(12), zoo.lin(12), 4),
            ("ef tier 2, lin(15) vs lin(16), k=4", "ef", 2, zoo.lin(15), zoo.lin(16), 4),
            ("pebble tier 2, cycle(8) vs cycle(8), k=3", "pebble", 2, C8, C8, 3),
            ("pebble tier 1, cycle(8) vs relabelled copy, k=3", "pebble", 1, C8, copy, 3)]


def main() -> int:
    worst = 0
    for label, tag, tier, A, B, k in cases():
        t0 = time.perf_counter()
        verdict = decide(tag, tier, A, B, k)
        t1 = time.perf_counter()
        cert = verdict["certificate"]
        sides = ([(cert["forward"], A, B), (cert["backward"], B, A)] if tier == 1
                 else [(cert, A, B)])
        faults = [msg for side, src, dst in sides
                  for ok, msg in [verify_certificate(side, src, dst)] if not ok]
        t2 = time.perf_counter()
        solve, check = t1 - t0, t2 - t1
        bad = faults or not verdict["equiv"] or check > RATIO * solve
        worst |= bool(bad)
        print(f"{label}: equiv {verdict['equiv']}, solve {solve:.2f} s, "
              f"re-verify {check:.2f} s ({check / solve:.1f}x)"
              + (f"  FAULT: {faults[0]}" if faults else "")
              + ("  OVER" if check > RATIO * solve else ""))
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
