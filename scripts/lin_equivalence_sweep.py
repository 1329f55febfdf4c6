#!/usr/bin/env python3
"""Sweep the back-and-forth game over pairs of linear orders.

Prints, for each k, the matrix of LIN(m) ~ LIN(n) verdicts.  The classic
pattern emerges: orders are equivalent at k rounds iff they are equal or both
have at least 2^k - 1 elements.  Every verdict is checked against that closed
form; a mismatch is marked "!" and makes the script exit with status 1.
"""

import argparse
import sys

from gamecomonads import zoo
from gamecomonads.ef import ef_game


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=8)
    ap.add_argument("--max-k", type=int, default=3)
    args = ap.parse_args()

    mismatches = 0
    for k in range(1, args.max_k + 1):
        print(f"\nk = {k}   (threshold 2^k - 1 = {2 ** k - 1})")
        header = "     " + " ".join(f"{n:2d}" for n in range(1, args.max_n + 1))
        print(header)
        for m in range(1, args.max_n + 1):
            row = [f"{m:3d}: "]
            for n in range(1, args.max_n + 1):
                eq = ef_game(zoo.lin(m), zoo.lin(n), k, 2, build_certificate=False)[0]
                expected = m == n or min(m, n) >= 2 ** k - 1
                mismatches += eq != expected
                row.append((" =" if eq else " .") if eq == expected else " !")
            print("".join(row))
    if mismatches:
        print(f"{mismatches} verdicts differ from the closed form", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
