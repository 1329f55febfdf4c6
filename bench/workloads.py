"""The four workloads: seeded inputs, the CLI calls made on them and the expected answers.

`build(name, seed)` returns the structure files to write and the list of
calls.  Each call carries the argv given to `gamecomonads.cli.main` and what
its output must satisfy, worked out here by the independent procedures in
`oracles.py`.  The seed changes relabellings and random draws; sizes, and
therefore cost classes, stay the same for every seed.
"""

from __future__ import annotations

import random

import oracles

WORKLOADS = ("rank-games", "pebble-games", "modal-games", "width-params")


# ------------------------------------------------------------- structures

def _graph(universe, edges) -> dict:
    tups = [[u, v] for u, v in edges] + [[v, u] for u, v in edges]
    return {"signature": {"R": 2}, "universe": list(universe), "relations": {"R": tups}}


def lin(n: int) -> dict:
    u = [f"e{i}" for i in range(n)]
    return {"signature": {"R": 2}, "universe": u,
            "relations": {"R": [[u[i], u[j]] for i in range(n) for j in range(i + 1, n)]}}


def path(n: int) -> dict:
    u = [f"v{i}" for i in range(n)]
    return _graph(u, [(u[i], u[i + 1]) for i in range(n - 1)])


def cycle(n: int) -> dict:
    u = [f"v{i}" for i in range(n)]
    return _graph(u, [(u[i], u[(i + 1) % n]) for i in range(n)])


def clique(n: int) -> dict:
    u = [f"v{i}" for i in range(n)]
    return _graph(u, [(u[i], u[j]) for i in range(n) for j in range(i + 1, n)])


def grid(r: int, c: int) -> dict:
    u = [f"g{i}_{j}" for i in range(r) for j in range(c)]
    edges = [(f"g{i}_{j}", f"g{i}_{j + 1}") for i in range(r) for j in range(c - 1)]
    edges += [(f"g{i}_{j}", f"g{i + 1}_{j}") for i in range(r - 1) for j in range(c)]
    return _graph(u, edges)


def biclique(a: int, b: int) -> dict:
    left, right = [f"l{i}" for i in range(a)], [f"r{j}" for j in range(b)]
    return _graph(left + right, [(x, y) for x in left for y in right])


def gnm(n: int, m: int, rng: random.Random) -> dict:
    """Uniform graph with exactly m edges, so every draw costs about the same."""
    u = [f"v{i}" for i in range(n)]
    pairs = [(u[i], u[j]) for i in range(n) for j in range(i + 1, n)]
    return _graph(u, rng.sample(pairs, m))


def union(A: dict, B: dict) -> dict:
    """Disjoint union of two structures over one signature."""
    rels = {name: [["p" + x for x in t] for t in A["relations"].get(name, ())]
            + [["q" + x for x in t] for t in B["relations"].get(name, ())]
            for name in A["signature"]}
    return {"signature": dict(A["signature"]),
            "universe": ["p" + x for x in A["universe"]] + ["q" + x for x in B["universe"]],
            "relations": rels}


def random_structure(n: int, rng: random.Random) -> dict:
    """A binary relation with n + 2 tuples (loops allowed) and a unary one on two elements."""
    u = [f"u{i}" for i in range(n)]
    cells = [(x, y) for x in u for y in u]
    return {"signature": {"E": 2, "P": 1}, "universe": u,
            "relations": {"E": [list(t) for t in rng.sample(cells, n + 2)],
                          "P": [[x] for x in rng.sample(u, 2)]}}


def kripke(n: int, deg: int, rng: random.Random) -> dict:
    """n worlds, labels a and b with exactly `deg` successors each, propositions p and q."""
    u = [f"w{i}" for i in range(n)]
    rels = {"a": [], "b": [], "p": [], "q": []}
    for x in u:
        for lab in ("a", "b"):
            rels[lab] += [[x, y] for y in rng.sample(u, deg)]
        for prop in ("p", "q"):
            if rng.random() < 0.5:
                rels[prop].append([x])
    return {"signature": {"a": 2, "b": 2, "p": 1, "q": 1}, "universe": u,
            "relations": rels, "point": "w0"}


def sync_tree(n: int, rng: random.Random) -> dict:
    """A synchronization tree: each world below the root hangs off an earlier one."""
    u = [f"w{i}" for i in range(n)]
    rels = {"a": [], "b": [], "p": [[x] for x in u if rng.random() < 0.5]}
    for i in range(1, n):
        rels[rng.choice("ab")].append([u[rng.randrange(max(0, i - 4), i)], u[i]])
    return {"signature": {"a": 2, "b": 2, "p": 1}, "universe": u, "relations": rels, "point": "w0"}


def dag(n: int, rng: random.Random) -> dict:
    """A synchronization tree with extra forward edges, so some world has two parents."""
    S = sync_tree(n, rng)
    u = S["universe"]
    for _ in range(max(1, n // 10)):
        i = rng.randrange(2, n)
        S["relations"]["b"].append([u[rng.randrange(0, i - 1)], u[i]])
    return S


def relabel(S: dict, rng: random.Random) -> dict:
    """An isomorphic copy: fresh element names, universe listed in a shuffled order."""
    u = list(S["universe"])
    names = [f"x{i}" for i in range(len(u))]
    rng.shuffle(names)
    ren = dict(zip(u, names))
    order = list(names)
    rng.shuffle(order)
    out = {"signature": dict(S["signature"]), "universe": order,
           "relations": {r: [[ren[x] for x in t] for t in ts] for r, ts in S["relations"].items()}}
    if "point" in S:
        out["point"] = ren[S["point"]]
    return out


def rename(S: dict, rng: random.Random) -> dict:
    """Fresh random names that sort as the old ones do, universe order kept.

    The program sorts and iterates by element name and universe order, so
    this copy costs exactly what S costs.
    """
    names: set[str] = set()
    while len(names) < len(S["universe"]):
        names.add("".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=6)))
    ren = dict(zip(sorted(S["universe"]), sorted(names)))
    out = {"signature": dict(S["signature"]), "universe": [ren[x] for x in S["universe"]],
           "relations": {r: [[ren[x] for x in t] for t in ts] for r, ts in S["relations"].items()}}
    if "point" in S:
        out["point"] = ren[S["point"]]
    return out


def fixed_copy(S: dict, key: str, rng: random.Random) -> dict:
    """An isomorphic copy under a permutation fixed by `key`, renamed by the seed.

    Used where one call dominates a workload: how long the solvers take
    depends on the permutation, which must therefore be the same for every
    seed.
    """
    return rename(relabel(S, random.Random(key)), rng)


# ------------------------------------------------------------------- plan

class Plan:
    """Files and calls of one workload, with helpers that add calls."""

    def __init__(self):
        self.files: dict[str, dict] = {}
        self.calls: list[dict] = []

    def file(self, name: str, S: dict) -> str:
        self.files[name] = S
        return name

    def check(self, game: str, pair: str, A: str, B: str, k: int, tier: int,
              equiv: bool) -> None:
        self.calls.append({"kind": "check", "pair": pair, "game": game, "tier": tier, "k": k,
                           "argv": ["check", "--game", game, "--tier", str(tier), "-k", str(k),
                                    A, B],
                           "expect": {"equiv": equiv}})


def _pair(plan: Plan, key: str, A: dict, B: dict) -> tuple[str, str]:
    return plan.file(f"{key}-A", A), plan.file(f"{key}-B", B)


# ----------------------------------------------------------- rank-games

def rank_games(rng: random.Random) -> Plan:
    plan = Plan()
    lin_pairs = ([(2, (2, 3)), (2, (3, 3)), (2, (3, 4)), (2, (4, 5)), (2, (5, 6))]
                 + [(3, (m, m + 1)) for m in (3, 4, 5, 6, 7, 9)]
                 + [(3, (m, m)) for m in (4, 6, 7)]
                 + [(4, (m, m)) for m in range(4, 9)])
    for k, (m, n) in lin_pairs:
        key = f"lin{m}-lin{n}-k{k}"
        A, B = _pair(plan, key, lin(m), fixed_copy(lin(n), key, rng))
        for tier in (1, 2, 3):
            plan.check("ef", key, A, B, k, tier, oracles.lin_verdict(m, n, k, tier))
    for i, n in enumerate((4, 4, 4, 5, 5, 5, 5, 5)):
        S = random_structure(n, rng)
        partners = {"copy": relabel(S, rng), "other": relabel(random_structure(n, rng), rng)}
        for what, T in partners.items():
            key = f"rand{i}-{what}"
            A, B = _pair(plan, key, S, T)
            for k in (2, 3):
                for tier in (1, 2, 3):
                    plan.check("ef", key, A, B, k, tier, oracles.ef_verdict(S, T, k, tier))
    return plan


# --------------------------------------------------------- pebble-games

def pebble_games(rng: random.Random) -> Plan:
    plan = Plan()

    def add(key, S, T, ks_tiers):
        T = fixed_copy(T, key, rng)
        A, B = _pair(plan, key, S, T)
        for k, tiers in ks_tiers:
            for tier in tiers:
                plan.check("pebble", key, A, B, k, tier, _pebble_expect(S, T, k, tier))

    all3 = (1, 2, 3)
    # cycle(8) against a relabelled copy at k=3, tier 1: the ~9 s case, at full size
    add("c8-copy", cycle(8), cycle(8), [(2, (3,)), (3, (1,))])
    # C6 at k=3, tier 2: verifying the certificate costs more than solving
    add("c6-copy", cycle(6), cycle(6), [(2, all3), (3, (2, 3))])
    add("c6-2c3", cycle(6), union(cycle(3), cycle(3)), [(2, (2, 3)), (3, all3)])
    add("c8-2c4", cycle(8), union(cycle(4), cycle(4)), [(3, (2, 3))])
    add("c5-c7", cycle(5), cycle(7), [(2, (2, 3)), (3, (2,))])
    add("c3p2-copy", union(cycle(3), path(2)), union(cycle(3), path(2)), [(2, all3)])
    for key, S, T in (("2p2-p4", union(path(2), path(2)), path(4)),
                      ("2p2-c4", union(path(2), path(2)), cycle(4)),
                      ("k13-p4", biclique(1, 3), path(4)),
                      ("k13-copy", biclique(1, 3), biclique(1, 3)),
                      ("c3-copy", cycle(3), cycle(3)),
                      ("c4-copy", cycle(4), cycle(4)),
                      ("2p2-copy", union(path(2), path(2)), union(path(2), path(2))),
                      ("k22-c4", biclique(2, 2), cycle(4)),
                      ("p3-k12", path(3), biclique(1, 2)),
                      ("p2-2p2", path(2), union(path(2), path(2))),
                      ("k13-c4", biclique(1, 3), cycle(4))):
        add(key, S, T, [(2, all3), (3, all3)])
    add("k14-k13", biclique(1, 4), biclique(1, 3), [(2, all3)])
    add("k14-copy", biclique(1, 4), biclique(1, 4), [(2, all3)])
    add("p4-c4", path(4), cycle(4), [(3, all3)])
    for n in (4, 6):
        add(f"c{n}-p{n}", cycle(n), path(n), [(2, all3)])
    for n in range(4, 7):
        add(f"c{n}-copy-small", cycle(n), cycle(n), [(2, all3)])
    for n in range(2, 7):
        add(f"p{n}-copy", path(n), path(n), [(2, all3)] + ([(3, all3)] if n <= 4 else []))
    for n in range(2, 6):
        add(f"p{n}-p{n + 1}", path(n), path(n + 1),
            [(2, all3)] + ([(3, (1,))] if n <= 4 else []))
    return plan


def _pebble_expect(S: dict, T: dict, k: int, tier: int) -> bool:
    if tier == 1:
        verdict = oracles.pebble_existential_verdict(S, T, k)
        if verdict is None:
            raise ValueError("pebble tier-1 call that the homomorphism oracle cannot decide")
        return verdict
    if tier == 3 and k == 2:
        return not oracles.colour_refinement_distinguishes(S, T)
    return oracles.tuple_refinement_equiv(S, T, k, counting=(tier == 3))


# ---------------------------------------------------------- modal-games

def _flipped(S: dict, distance: int, rng: random.Random) -> dict:
    """Copy of S with proposition p flipped at one world `distance` steps from the point.

    The world is drawn among those at that distance whose flip mutual
    simulation notices at depth `distance`, so the verdict is "equivalent"
    exactly for k < distance on every tier.
    """
    K = oracles.Kripke(S)
    dist = oracles.distances(K)
    candidates = sorted(w for w, d in dist.items() if d == distance)
    rng.shuffle(candidates)
    for w in candidates:
        T = {**S, "relations": dict(S["relations"])}
        ps = [t for t in S["relations"]["p"] if t != [w]]
        T["relations"]["p"] = ps if len(ps) < len(S["relations"]["p"]) else ps + [[w]]
        if not oracles.modal_verdict(S, T, distance, 1):
            return T
    raise ValueError(f"no visible flip at distance {distance}")


def modal_games(rng: random.Random) -> Plan:
    """Random draws are fixed per instance and the seed renames them: the
    cost of a modal game depends on the draw far more than on its size."""
    plan = Plan()

    def add(key, shape, S, T, k, tier, designed):
        if f"{key}-A" not in plan.files:
            _pair(plan, key, rename(S, rng), rename(relabel(T, shape), rng))
        equiv = oracles.modal_verdict(S, T, k, tier)
        if equiv != designed:
            raise ValueError(f"{key}: the flip is not seen as designed at k={k}, tier {tier}")
        plan.check("modal", key, f"{key}-A", f"{key}-B", k, tier, equiv)

    # tier 1 works over all world pairs, at a cost growing as n^3: one
    # 100-world pair at k=4, smaller ones below it.  A flip at distance 4 is
    # unseen at k=3 and seen at k=4; one at distance 3 is seen at both.
    tier1 = [(100, [("copy", 0, 4), ("flip", 3, 4)])] + [
        (n, [("copy", 0, 3), ("flip", 4, 3), ("flip", 4, 4)]) for n in (30, 40, 55, 70)]
    for n, runs in tier1:
        shape = random.Random(f"kripke{n}-t1")
        S = kripke(n, 1, shape)
        flips = {d: _flipped(S, d, shape) for what, d, _ in runs if what == "flip"}
        for what, d, k in runs:
            add(f"kripke{n}-t1-{what}{d or ''}", shape, S, flips.get(d, S), k, 1,
                what == "copy" or k < d)
    # tiers 2 and 3 explore from the point, so larger structures stay cheap
    for n in (20, 30, 40, 60, 80, 100, 120, 140, 160, 180, 200):
        shape = random.Random(f"kripke{n}-t23")
        S = kripke(n, 2, shape)
        d = 4 if n % 40 == 0 else 3
        for what, T in (("copy", S), (f"flip{d}", _flipped(S, d, shape))):
            for k in (3, 4):
                for tier in (2, 3):
                    add(f"kripke{n}-t23-{what}", shape, S, T, k, tier, what == "copy" or k < d)
    for n in (5, 10, 15, 20, 25, 30, 40, 50, 60, 70, 80, 90, 100, 110, 125, 135, 150, 165, 175,
              190, 200, 250, 300, 350):
        for what, make in (("tree", sync_tree), ("dag", dag)):
            shape = random.Random(f"{what}{n}")
            name = plan.file(f"{what}{n}", rename(relabel(make(n, shape), shape), rng))
            height, kappa = oracles.modal_depth(plan.files[name])
            plan.calls.append({"kind": "modal-depth", "argv": ["param", "--kind", "modal-depth", name],
                               "file": name, "expect": {"value": height, "coalgebra_number": kappa}})
    return plan


# --------------------------------------------------------- width-params

# (kind, a, b) of families with known values
FAMILIES = ([("path", n, 0) for n in range(2, 13)] + [("cycle", n, 0) for n in range(3, 13)]
            + [("clique", n, 0) for n in range(2, 10)]
            + [("grid", 2, n) for n in range(2, 7)] + [("grid", 3, 3), ("grid", 3, 4)]
            + [("biclique", a, b) for a, b in ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
                                               (2, 2), (2, 3), (2, 4), (3, 3), (2, 5), (3, 4),
                                               (2, 6), (3, 5), (4, 4))])


def width_params(rng: random.Random) -> Plan:
    plan = Plan()
    build = {"path": lambda a, b: path(a), "cycle": lambda a, b: cycle(a),
             "clique": lambda a, b: clique(a), "grid": grid, "biclique": biclique}
    graphs = []
    for kind, a, b in FAMILIES:
        tw, td = oracles.family_widths(kind, a, b)
        graphs.append((f"{kind}{a}x{b}", build[kind](a, b), tw, td, False))
    for i, n in enumerate((6, 6, 7, 7, 8, 8, 9, 10, 11, 12, 12)):
        S = gnm(n, round(0.3 * n * (n - 1) / 2), rng)
        V, E = oracles.gaifman(S)
        graphs.append((f"gnm{i}-{n}", S, oracles.tree_width(V, E), oracles.tree_depth(V, E), True))
    # G(16, 0.3): drawn once, so this 5 s pair of calls costs the same for
    # every seed, which only renames it
    graphs.append(("gnp16", gnm(16, 36, random.Random(16)), None, None, False))
    for key, S, tw, td, drawn in graphs:
        # random draws are relabelled freely; fixed shapes keep their cost
        name = plan.file(key, relabel(S, rng) if drawn else fixed_copy(S, key, rng))
        V, E = oracles.gaifman(plan.files[name])
        facts = {"graph": key, "degeneracy": oracles.degeneracy(V, E)}
        for kind, value in (("tree-width", tw), ("tree-depth", td)):
            plan.calls.append({"kind": kind, "argv": ["param", "--kind", kind, name], "file": name,
                               "expect": {**facts, "value": value}})
        if drawn:
            for k in (tw, tw + 1):
                plan.calls.append({"kind": "coalgebra", "file": name,
                                   "argv": ["coalgebra", "--comonad", "pebble", "-k", str(k), name],
                                   "expect": {"exists": k == tw + 1, "k": k}})
    return plan


BUILDERS = {"rank-games": rank_games, "pebble-games": pebble_games,
            "modal-games": modal_games, "width-params": width_params}


def build(name: str, seed: int) -> Plan:
    plan = BUILDERS[name](random.Random(f"{name}/{seed}"))
    # The machine's speed drifts over seconds.  A fixed shuffle, the same for
    # every seed, spreads cheap and dear calls over the whole pass, so every
    # metric sees the same average speed.
    random.Random(name).shuffle(plan.calls)
    return plan
