#!/usr/bin/env python3
"""Time solving against re-verifying the certificate on five large game cases.

Usage: python3 scripts/verify_cost.py

The cases are large certificates: ef tier 1 on lin(12) vs itself and on
clique(14) vs itself at k=4, ef tier 2 on lin(15) vs lin(16) at k=4,
pebble tier 2 on cycle(8) vs itself at k=3, and pebble tier 1 on cycle(8)
vs the benchmark's relabelled copy (pebble-games, key "c8-copy") at k=3.  For each it times `equiv.decide`
(solving and building the certificate) and `equiv.verify_certificate` on
what it returned (both sides at tier 1, as `check` does) three times, prints
the least of each, and exits 1 if any re-verification fails or the least
re-verify takes more than 1.5 times the least solve.  Wall time; the least of
three runs is what a loaded machine disturbs least.

Every case has a homomorphism or an isomorphism, which would certify it in
place of the positions walk (`strategy.morphism`).  So the ratio is taken
with the morphism search patched out from here (`strategy.find_homomorphism`
finds nothing), and the times of the morphism path, as `check` runs it, are
printed after it: they are checked for faults but not gated.

Next to each ratio it prints the work of one more, untimed, re-verification:
the states it replayed (the positions the rules' `after` returned: those
Duplicator answers from next, so an answer in the last round adds none) and
the one-pair checks it made (calls with a new pair of the checks
`strategy.pair_check` returns), counted by wrapping both from this script.
A ratio that moves while the counts stay is noise; a real change to the
verifier moves the counts.
"""

from __future__ import annotations

import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402  (bench/workloads.py, read only)

from gamecomonads import strategy, zoo  # noqa: E402
from gamecomonads.equiv import RULES, decide, verify_certificate  # noqa: E402
from gamecomonads.structures import structure_from_dict  # noqa: E402

RATIO = 1.5
RUNS = 3


def cases():
    C8 = zoo.cycle(8)
    copy = structure_from_dict(workloads.fixed_copy(workloads.cycle(8), "c8-copy",
                                                    random.Random(1)))
    return [("ef tier 1, lin(12) vs lin(12), k=4", "ef", 1, zoo.lin(12), zoo.lin(12), 4),
            ("ef tier 1, clique(14) vs clique(14), k=4", "ef", 1, zoo.clique(14), zoo.clique(14), 4),
            ("ef tier 2, lin(15) vs lin(16), k=4", "ef", 2, zoo.lin(15), zoo.lin(16), 4),
            ("pebble tier 2, cycle(8) vs cycle(8), k=3", "pebble", 2, C8, C8, 3),
            ("pebble tier 1, cycle(8) vs relabelled copy, k=3", "pebble", 1, C8, copy, 3)]


def work(tag: str, sides) -> dict[str, int]:
    """The states replayed and the one-pair checks made by re-verifying
    each side once, with `after` and the checks wrapped to count them."""
    counts = {"states": 0, "checks": 0}
    rules, after, bind = RULES[tag], RULES[tag].after, strategy.pair_check

    def counted_after(*args):
        reached = after(*args)
        counts["states"] += len(reached)
        return reached

    def counted_bind(*args, **kwargs):
        check = bind(*args, **kwargs)

        def counted_check(pairs, new=None):
            counts["checks"] += new is not None  # not the full check of the start
            return check(pairs, new)
        return counted_check

    rules.after, strategy.pair_check = counted_after, counted_bind
    try:
        for side, src, dst in sides:
            verify_certificate(side, src, dst)
    finally:
        rules.after, strategy.pair_check = after, bind
    return counts


def timed(tag: str, tier: int, A, B, k: int):
    """The least solve and re-verify times of RUNS runs, with the last
    run's verdict, its certificate's sides (source, target) and the faults
    re-verifying them found."""
    solve = check = float("inf")
    for _ in range(RUNS):
        t0 = time.perf_counter()
        verdict = decide(tag, tier, A, B, k)
        t1 = time.perf_counter()
        cert = verdict["certificate"]
        sides = ([(cert["forward"], A, B), (cert["backward"], B, A)] if tier == 1
                 else [(cert, A, B)])
        faults = [msg for side, src, dst in sides
                  for ok, msg in [verify_certificate(side, src, dst)] if not ok]
        t2 = time.perf_counter()
        solve, check = min(solve, t1 - t0), min(check, t2 - t1)
        if faults or not verdict["equiv"]:
            break
    return solve, check, verdict, sides, faults


def main() -> int:
    worst = 0
    search = strategy.find_homomorphism
    for label, tag, tier, A, B, k in cases():
        strategy.find_homomorphism = lambda *args, **kwargs: None  # the positions walk
        try:
            solve, check, verdict, sides, faults = timed(tag, tier, A, B, k)
            counts = work(tag, sides)
        finally:
            strategy.find_homomorphism = search
        fast_solve, fast_check, _, fast_sides, fast_faults = timed(tag, tier, A, B, k)
        faults += fast_faults
        bad = faults or not verdict["equiv"] or check > RATIO * solve
        worst |= bool(bad)
        shapes = "/".join(dict.fromkeys(side["shape"] for side, _, _ in fast_sides))
        print(f"{label}: equiv {verdict['equiv']}, solve {solve:.2f} s, "
              f"re-verify {check:.2f} s ({check / solve:.1f}x, least of {RUNS}; "
              f"{counts['states']:,} states, {counts['checks']:,} one-pair checks); "
              f"by {shapes}: solve {fast_solve * 1000:.1f} ms, "
              f"re-verify {fast_check * 1000:.2f} ms"
              + (f"  FAULT: {faults[0]}" if faults else "")
              + ("  OVER" if check > RATIO * solve else ""))
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
