#!/usr/bin/env python3
"""Survey tree-depth, tree-width and pebble coalgebra numbers on random graphs.

For each sampled structure, computes both width parameters, rebuilds the
pebbled forest cover from an optimal decomposition, translates the rank
coalgebra to a pebbled one, and checks every witness against its verifier,
the cover's height against the tree-depth, and the inequality tw + 1 <= td.
A failed check marks the row "FAIL" and makes the script exit with status 1.
"""

import argparse
import random
import sys

from gamecomonads.coalgebra import (ef_to_pebble_coalgebra,
                                    forest_cover_to_ef_coalgebra,
                                    pebble_coalgebra_number, verify_coalgebra)
from gamecomonads.decomposition import tree_depth, tree_width, verify_forest_cover
from gamecomonads.structures import gaifman_graph, validate_structure


def sample(rng: random.Random, max_size: int, density: float):
    n = rng.randint(1, max_size)
    universe = [f"v{i}" for i in range(n)]
    tups = [[u, v] for u in universe for v in universe
            if u != v and rng.random() < density]
    return validate_structure({"R": 2}, universe, {"R": tups})


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=30)
    ap.add_argument("--max-size", type=int, default=8)
    ap.add_argument("--density", type=float, default=0.3)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    failures = 0
    print(f"{'n':>3} {'edges':>5} {'td':>3} {'tw':>3} {'kappa_P':>7}  checks")
    for _ in range(args.samples):
        A = sample(rng, args.max_size, args.density)
        G = gaifman_graph(A)
        depth, cover = tree_depth(A)
        width = tree_width(A)[0]
        kappa = pebble_coalgebra_number(A)[0]
        problems = []
        ok, msg = verify_forest_cover(cover, G)
        if not ok:
            problems.append(f"cover: {msg}")
        elif cover.height != depth:
            problems.append(f"cover height {cover.height} != td")
        else:
            beta = ef_to_pebble_coalgebra(forest_cover_to_ef_coalgebra(cover, depth))
            ok, msg = verify_coalgebra("pebble", A, depth, beta)
            if not ok:
                problems.append(f"pebble coalgebra: {msg}")
        if kappa != width + 1:
            problems.append("kappa_P != tw + 1")
        if width + 1 > depth:
            problems.append("tw + 1 > td")
        failures += bool(problems)
        print(f"{len(A.universe):>3} {len(G.edges):>5} {depth:>3} {width:>3} {kappa:>7}  "
              + ("FAIL " + "; ".join(problems) if problems else "ok"))
    if failures:
        print(f"{failures} of {args.samples} samples failed a check", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
