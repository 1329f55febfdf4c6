"""Answers computed apart from the program, used to check every benchmark call.

Nothing here imports `gamecomonads`.  Structures are the plain dicts of the
CLI's JSON format: ``{"signature", "universe", "relations"[, "point"]}``.
The procedures are textbook ones (game recursions, refinement, backtracking,
subset dynamic programming) written for small inputs; each is cross-checked on
tiny cases in ``test_bench.py``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from math import ceil, log2
from typing import Optional


def _rels(S: dict) -> dict[str, frozenset]:
    return {name: frozenset(tuple(t) for t in S["relations"].get(name, ()))
            for name in S["signature"]}


# ------------------------------------------------------------ linear orders

def lin_closed_form(m: int, n: int, k: int) -> bool:
    """k-round back-and-forth game on lin(m), lin(n) (Rosenstein, Thm 6.10)."""
    return m == n or (m >= 2 ** k - 1 and n >= 2 ** k - 1)


@lru_cache(maxsize=None)
def lin_existential(m: int, n: int, k: int) -> bool:
    """k-round existential game lin(m) -> lin(n), by the textbook split.

    A Spoiler move at position i answered at j splits the game into the
    independent games on the segments below and above.
    """
    if k == 0 or m == 0:
        return True
    if n == 0:
        return False
    return all(any(lin_existential(i - 1, j - 1, k - 1) and lin_existential(m - i, n - j, k - 1)
                   for j in range(1, n + 1))
               for i in range(1, m + 1))


def lin_verdict(m: int, n: int, k: int, tier: int) -> bool:
    if tier == 1:
        return lin_existential(m, n, k) and lin_existential(n, m, k)
    if tier == 2:
        return lin_closed_form(m, n, k)
    return m == n


# -------------------------------------------------- rank games, brute force

def ef_verdict(A: dict, B: dict, k: int, tier: int) -> bool:
    """The k-round ef game of the given tier, by plain minimax over pair sets.

    Tier 1 is the one-sided game (partial homomorphisms) in both directions,
    tier 2 the back-and-forth game and tier 3 the bijection game (partial
    isomorphisms); bijections are enumerated outright.
    """
    if tier == 1:
        return _existential_ef(A, B, k) and _existential_ef(B, A, k)
    UA, UB = A["universe"], B["universe"]
    if tier == 3 and len(UA) != len(UB):
        return False
    RA, RB = _rels(A), _rels(B)
    bijections = [dict(zip(UA, p)) for p in permutations(UB)] if tier == 3 else None

    def iso(pairs) -> bool:
        fwd, bwd = {}, {}
        for a, b in pairs:
            if fwd.setdefault(a, b) != b or bwd.setdefault(b, a) != a:
                return False
        for name in RA:
            for src, dst, m in ((RA[name], RB[name], fwd), (RB[name], RA[name], bwd)):
                for t in src:
                    if all(x in m for x in t) and tuple(m[x] for x in t) not in dst:
                        return False
        return True

    @lru_cache(maxsize=None)
    def win(pairs: frozenset, r: int) -> bool:
        if r == 0:
            return True

        def ok(a, b):
            nxt = pairs | {(a, b)}
            return iso(nxt) and win(nxt, r - 1)

        if tier == 3:
            return any(all(ok(a, f[a]) for a in UA) for f in bijections)
        return (all(any(ok(a, b) for b in UB) for a in UA)
                and all(any(ok(a, b) for a in UA) for b in UB))

    return win(frozenset(), k)


def _existential_ef(A: dict, B: dict, k: int) -> bool:
    UA, UB = A["universe"], B["universe"]
    RA, RB = _rels(A), _rels(B)

    def hom(pairs) -> bool:
        m = {}
        for a, b in pairs:
            if m.setdefault(a, b) != b:
                return False
        return all(tuple(m[x] for x in t) in RB[name]
                   for name in RA for t in RA[name] if all(x in m for x in t))

    @lru_cache(maxsize=None)
    def win(pairs: frozenset, r: int) -> bool:
        return r == 0 or all(any(hom(pairs | {(a, b)}) and win(pairs | {(a, b)}, r - 1)
                                 for b in UB) for a in UA)

    return win(frozenset(), k)


# ------------------------------------------------------------- pebble games

def tuple_refinement_equiv(A: dict, B: dict, k: int, counting: bool) -> bool:
    """k-variable equivalence by refinement of k-tuple colours.

    Start from the atomic type of each k-tuple and refine, coordinate by
    coordinate, by the set (L^k, the k-pebble game) or multiset (C^k, the
    bijective k-pebble game, i.e. oblivious k-WL) of colours reached by
    moving that one pebble.  Refinement runs jointly on both structures until
    the partition is stable; then the colour sets (multisets) are compared.
    """
    if counting and len(A["universe"]) != len(B["universe"]):
        return False
    sides = [(S["universe"], _rels(S), S["signature"]) for S in (A, B)]
    colour: dict = {}
    for side, (U, R, sig) in enumerate(sides):
        for t in product(U, repeat=k):
            eq = tuple(t[i] == t[j] for i in range(k) for j in range(k))
            atoms = tuple(tuple(tuple(t[i] for i in idx) in R[name]
                                for idx in product(range(k), repeat=sig[name]))
                          for name in sorted(sig))
            colour[(side, t)] = (eq, atoms)
    colour = _renumber(colour)
    classes = len(set(colour.values()))
    while True:
        new = {}
        for (side, t), c in colour.items():
            U = sides[side][0]
            moves = []
            for i in range(k):
                reached = [colour[(side, t[:i] + (x,) + t[i + 1:])] for x in U]
                moves.append(tuple(sorted(reached)) if counting else frozenset(reached))
            new[(side, t)] = (c, tuple(moves))
        colour = _renumber(new)
        now = len(set(colour.values()))
        if now == classes:
            break
        classes = now
    left = [c for (side, _), c in colour.items() if side == 0]
    right = [c for (side, _), c in colour.items() if side == 1]
    return sorted(left) == sorted(right) if counting else set(left) == set(right)


def _renumber(keys: dict) -> dict:
    ids: dict = {}
    return {node: ids.setdefault(key, len(ids)) for node, key in keys.items()}


def colour_refinement_distinguishes(A: dict, B: dict) -> bool:
    """1-WL on the Gaifman graphs' disjoint union (the 2-pebble counting game)."""
    GA, GB = gaifman(A), gaifman(B)
    nbrs = {}
    for side, (V, E) in enumerate((GA, GB)):
        for v in V:
            nbrs[(side, v)] = []
        for u, v in E:
            nbrs[(side, u)].append((side, v))
            nbrs[(side, v)].append((side, u))
    colour = {node: 0 for node in nbrs}
    for _ in range(len(nbrs)):
        colour = _renumber({n: (colour[n], tuple(sorted(colour[m] for m in nbrs[n])))
                            for n in nbrs})
    left = sorted(c for (side, _), c in colour.items() if side == 0)
    right = sorted(c for (side, _), c in colour.items() if side == 1)
    return left != right


def hom_exists(A: dict, B: dict) -> bool:
    """Backtracking homomorphism search, checking each tuple once it is fully mapped."""
    UA, UB = A["universe"], B["universe"]
    RA, RB = _rels(A), _rels(B)
    order = list(UA)
    rank = {a: i for i, a in enumerate(order)}
    due: dict[str, list] = {a: [] for a in order}
    for name, tups in RA.items():
        for t in tups:
            due[max(t, key=rank.__getitem__)].append((name, t))
    h: dict = {}

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        a = order[i]
        for b in UB:
            h[a] = b
            if all(tuple(h[x] for x in t) in RB[name] for name, t in due[a]) and extend(i + 1):
                return True
        del h[a]
        return False

    return extend(0)


def pebble_existential_verdict(A: dict, B: dict, k: int) -> Optional[bool]:
    """Existential k-pebble games both ways, where homomorphisms decide them.

    A homomorphism is a winning strategy.  When no homomorphism leaves a side
    of tree-width below k, Spoiler wins from that side (Dalmau, Kolaitis and
    Vardi 2002).  Other cases are left undecided (None).
    """
    ab, ba = hom_exists(A, B), hom_exists(B, A)
    if ab and ba:
        return True
    for exists, S in ((ab, A), (ba, B)):
        if not exists and tree_width(*gaifman(S)) < k:
            return False
    return None


# ------------------------------------------------------------- modal games

class Kripke:
    """Adjacency lists per label and proposition profiles of a pointed structure."""

    def __init__(self, S: dict):
        sig = S["signature"]
        self.point = S["point"]
        self.worlds = list(S["universe"])
        self.labels = sorted(n for n, ar in sig.items() if ar == 2)
        props = sorted(n for n, ar in sig.items() if ar == 1)
        rels = _rels(S)
        self.profile = {w: frozenset(p for p in props if (w,) in rels[p]) for w in self.worlds}
        self.succ = {lab: {w: [] for w in self.worlds} for lab in self.labels}
        for lab in self.labels:
            for u, v in rels[lab]:
                self.succ[lab][u].append(v)


def simulation_local(P: Kripke, Q: Kripke, k: int) -> bool:
    """Depth-k simulation of P's point by Q's, explored from the points only."""

    @lru_cache(maxsize=None)
    def sim(a: str, b: str, d: int) -> bool:
        if not P.profile[a] <= Q.profile[b]:
            return False
        return d == 0 or all(any(sim(x, y, d - 1) for y in Q.succ[lab][b])
                             for lab in P.labels for x in P.succ[lab][a])

    return sim(P.point, Q.point, k)


def refinement_classes(P: Kripke, Q: Kripke, k: int, graded: bool) -> tuple:
    """Level-k classes of the two points under partition refinement.

    Level 0 is the proposition profile; level j+1 adds, per label, the set
    (bisimulation) or multiset (graded bisimulation) of successors' classes.
    """
    nodes = [(0, w) for w in P.worlds] + [(1, w) for w in Q.worlds]
    views = (P, Q)
    cls = _renumber({(s, w): tuple(sorted(views[s].profile[w])) for s, w in nodes})
    for _ in range(k):
        keyed = {}
        for s, w in nodes:
            K = views[s]
            per_label = []
            for lab in K.labels:
                reached = [cls[(s, v)] for v in K.succ[lab][w]]
                per_label.append(tuple(sorted(reached)) if graded else tuple(sorted(set(reached))))
            keyed[(s, w)] = (cls[(s, w)], tuple(per_label))
        cls = _renumber(keyed)
    return cls[(0, P.point)], cls[(1, Q.point)]


def modal_verdict(A: dict, B: dict, k: int, tier: int) -> bool:
    P, Q = Kripke(A), Kripke(B)
    if tier == 1:
        return simulation_local(P, Q, k) and simulation_local(Q, P, k)
    a, b = refinement_classes(P, Q, k, graded=(tier == 3))
    return a == b


def distances(K: Kripke) -> dict[str, int]:
    dist = {K.point: 0}
    frontier = [K.point]
    while frontier:
        nxt = []
        for w in frontier:
            for lab in K.labels:
                for v in K.succ[lab][w]:
                    if v not in dist:
                        dist[v] = dist[w] + 1
                        nxt.append(v)
        frontier = nxt
    return dist


def modal_depth(S: dict) -> tuple[Optional[int], Optional[int]]:
    """(height, least coalgebra depth) of a pointed structure.

    The height is defined when the part reachable from the point is a
    synchronization tree (the point has no incoming edge, every other
    reachable world exactly one).  A coalgebra also needs every world to be
    reachable; its least depth is max(height, 1).
    """
    K = Kripke(S)
    dist = distances(K)
    indeg = {w: 0 for w in dist}
    for lab in K.labels:
        for u in dist:
            for v in K.succ[lab][u]:
                indeg[v] += 1
    if indeg[K.point] != 0 or any(d != 1 for w, d in indeg.items() if w != K.point):
        return None, None
    height = max(dist.values())
    return height, (max(height, 1) if len(dist) == len(K.worlds) else None)


# --------------------------------------------------------- width parameters

def gaifman(S: dict) -> tuple[list, set]:
    """Vertices and undirected edges (as sorted pairs) of the Gaifman graph."""
    edges = set()
    for tups in S["relations"].values():
        for t in tups:
            for x in t:
                for y in t:
                    if x < y:
                        edges.add((x, y))
    return list(S["universe"]), edges


def _adjacency(V, E) -> dict[str, set]:
    adj = {v: set() for v in V}
    for u, v in E:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def degeneracy(V, E) -> int:
    """Largest minimum degree over subgraphs; a lower bound on tree-width."""
    adj = _adjacency(V, E)
    best = 0
    while adj:
        v = min(adj, key=lambda x: (len(adj[x]), x))
        best = max(best, len(adj[v]))
        for w in adj.pop(v):
            adj[w].discard(v)
    return best


def tree_width(V, E) -> int:
    """Exact tree-width by the elimination-ordering recursion over vertex sets.

    TW(S) = min over v in S of max(TW(S - v), |Q(S - v, v)|), where Q(S, v)
    are the vertices outside S + v reachable from v through S.
    """
    adj = _adjacency(V, E)
    index = {v: i for i, v in enumerate(V)}
    nbr = [sum(1 << index[w] for w in adj[v]) for v in V]
    full = (1 << len(V)) - 1

    def q_size(S: int, v: int) -> int:
        seen, stack, out = 1 << v, [v], 0
        while stack:
            u = stack.pop()
            new = nbr[u] & ~seen
            seen |= new
            out |= new & ~S
            inner = new & S
            while inner:
                low = inner & -inner
                stack.append(low.bit_length() - 1)
                inner ^= low
        return bin(out).count("1")

    @lru_cache(maxsize=None)
    def tw(S: int) -> int:
        if S == 0:
            return -1
        best = len(V)
        rest = S
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            best = min(best, max(tw(S ^ low), q_size(S ^ low, v)))
        return best

    return max(tw(full), 0)


def tree_depth(V, E) -> int:
    """Exact tree-depth: 1 + best deletion on a connected graph, max over components."""
    adj = _adjacency(V, E)

    @lru_cache(maxsize=None)
    def td(S: frozenset) -> int:
        if not S:
            return 0
        comps = _components(S, adj)
        if len(comps) > 1:
            return max(td(c) for c in comps)
        return 1 + min(td(S - {v}) for v in S)

    return td(frozenset(V))


def _components(S: frozenset, adj) -> list[frozenset]:
    left, out = set(S), []
    while left:
        stack = [left.pop()]
        comp = set(stack)
        while stack:
            for w in adj[stack.pop()] & left:
                left.discard(w)
                comp.add(w)
                stack.append(w)
        out.append(frozenset(comp))
    return out


def family_widths(kind: str, a: int, b: int = 0) -> tuple[int, Optional[int]]:
    """Known (tree-width, tree-depth) of a named family; None where no closed form is used."""
    if kind == "path":
        return (1 if a > 1 else 0), ceil(log2(a + 1))
    if kind == "cycle":
        return 2, 1 + ceil(log2(a))
    if kind == "clique":
        return a - 1, a
    if kind == "grid":
        return min(a, b), None
    if kind == "biclique":
        return min(a, b), min(a, b) + 1
    raise ValueError(kind)


# ---------------------------------------------------------- witness checks

def check_tree_decomposition(w: dict, V, E, width: int) -> Optional[str]:
    """None if `w` (the CLI's JSON form) is a tree decomposition of width `width`."""
    nodes = w["nodes"]
    bags = {n: set(w["bags"][n]) for n in nodes}
    parent = w["parent"]
    if len(set(nodes)) != len(nodes) or set(parent) != set(nodes):
        return "node list and parent map disagree"
    if sum(parent[n] is None for n in nodes) != 1:
        return "not exactly one root"
    for n in nodes:
        seen, cur = set(), n
        while cur is not None:
            if cur in seen or cur not in parent:
                return f"node {n!r} does not reach the root"
            seen.add(cur)
            cur = parent[cur]
    if any(v not in set().union(*bags.values()) for v in V):
        return "a vertex is in no bag"
    if any(not any({u, v} <= bag for bag in bags.values()) for u, v in E):
        return "an edge is in no bag"
    for v in V:
        holding = {n for n in nodes if v in bags[n]}
        tops = [n for n in holding if parent[n] not in holding]
        if len(tops) != 1:
            return f"bags holding {v!r} are not connected"
    if max(len(b) for b in bags.values()) - 1 != width or w.get("width") != width:
        return "width differs from the largest bag"
    return None


def _chain(parent: dict, v: str) -> Optional[list]:
    out, seen = [v], {v}
    while parent.get(out[-1]) is not None:
        nxt = parent[out[-1]]
        if nxt in seen or nxt not in parent:
            return None
        seen.add(nxt)
        out.append(nxt)
    return out[::-1]


def check_forest_cover(w: dict, V, E, depth: int) -> Optional[str]:
    """None if `w` is a forest cover of height `depth` of the graph."""
    parent = w["parent"]
    if set(parent) != set(V):
        return "cover vertices differ from the graph's"
    chains = {v: _chain(parent, v) for v in V}
    if any(c is None for c in chains.values()):
        return "parent map is not a forest"
    for u, v in E:
        cu, cv = chains[u], chains[v]
        if cu[:len(cv)] != cv and cv[:len(cu)] != cu:
            return f"edge ({u!r}, {v!r}) joins incomparable vertices"
    height = max(len(c) for c in chains.values())
    if height != depth or w.get("height") != depth:
        return "height differs from the value"
    return None


def check_pebble_coalgebra(alpha: dict, S: dict, k: int) -> Optional[str]:
    """Counit, comultiplication and homomorphism laws of a pebbling coalgebra."""
    plays = {}
    for a in S["universe"]:
        if a not in alpha:
            return f"undefined on {a!r}"
        s = tuple((int(p), x) for p, x in alpha[a])
        if not s or s[-1][1] != a:
            return f"play of {a!r} does not end at it"
        if any(not 1 <= p <= k for p, _ in s):
            return f"play of {a!r} uses a pebble outside 1..{k}"
        plays[a] = s
    for a, s in plays.items():
        if any(plays.get(x) != s[:i + 1] for i, (_, x) in enumerate(s)):
            return f"prefixes of the play of {a!r} are not the plays of its elements"
    for tups in S["relations"].values():
        for t in tups:
            for x in t:
                for y in t:
                    s, u = plays[x], plays[y]
                    if u[:len(s)] != s and s[:len(u)] != u:
                        return f"plays of {x!r} and {y!r} are not comparable"
                    if len(s) <= len(u) and any(p == s[-1][0] for p, _ in u[len(s):]):
                        return f"pebble of {x!r} is moved again before {y!r}"
    return None


def check_modal_witness(w: dict, S: dict, kappa: int) -> Optional[str]:
    """The modal coalgebra sends each world to its path from the point."""
    K = Kripke(S)
    alpha = w["alpha"]
    if w.get("k") != kappa or set(alpha) != set(K.worlds):
        return "witness does not cover the worlds at the reported depth"
    for world, s in alpha.items():
        if s[0] != K.point or s[-1] != world or (len(s) - 1) // 2 > kappa:
            return f"play of {world!r} is malformed"
        for i in range(1, len(s), 2):
            if s[i + 1] not in K.succ.get(s[i], {}).get(s[i - 1], ()):
                return f"play of {world!r} uses a missing transition"
            if alpha[s[i + 1]] != s[:i + 2]:
                return f"play of {world!r} is not prefix-closed"
    return None
