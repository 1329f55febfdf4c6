"""Forest covers, tree decompositions, and exact tree-depth / tree-width.

Both solvers are exact and desk-scale only, and work on integer vertex masks
(components by flood fill): tree-depth by memoized recursion over connected
masks, tree-width by a subset DP over elimination prefixes.  Ties go to the
first vertex in universe order.  Each returns an independently verifiable witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .structures import BoundExceeded, Graph, Structure, gaifman_graph

TREE_DEPTH_BOUND = 20
TREE_WIDTH_BOUND = 18

ROOT = "#root"  # virtual tree-decomposition root node


@dataclass
class ForestCover:
    """Forest order on the universe, as a parent map (roots map to None).

    Every edge of the covered graph must connect comparable vertices.
    """

    parent: dict[str, Optional[str]]

    def chain(self, v: str) -> list[str]:
        """Predecessors of v from the root down, including v."""
        out = [v]
        seen = {v}
        while self.parent[out[-1]] is not None:
            nxt = self.parent[out[-1]]
            if nxt in seen:
                raise ValueError("cycle in parent map")
            seen.add(nxt)
            out.append(nxt)
        out.reverse()
        return out

    @property
    def height(self) -> int:
        return max((len(self.chain(v)) for v in self.parent), default=0)

    def comparable(self, u: str, v: str) -> bool:
        cu, cv = self.chain(u), self.chain(v)
        return cu[:len(cv)] == cv or cv[:len(cu)] == cu


@dataclass
class PebbledForestCover:
    """Forest cover plus a pebble assignment into {1..k}.

    Along any chain witnessing an edge (v below v'), the pebble of v may not
    recur strictly above v up to and including v'.
    """

    cover: ForestCover
    pebbles: dict[str, int]
    k: int


@dataclass
class TreeDecomposition:
    """Rooted tree of bags; width is the largest bag size minus one."""

    nodes: tuple[str, ...]
    parent: dict[str, Optional[str]]
    bags: dict[str, frozenset[str]]

    @property
    def root(self) -> str:
        roots = [n for n in self.nodes if self.parent[n] is None]
        if len(roots) != 1:
            raise ValueError("tree decomposition must have exactly one root")
        return roots[0]

    @property
    def width(self) -> int:
        return max(len(self.bags[n]) for n in self.nodes) - 1

    def children(self, n: str) -> list[str]:
        return [m for m in self.nodes if self.parent[m] == n]

    def path_nodes(self, x: str, y: str) -> set[str]:
        """Nodes on the unique tree path between x and y."""
        anc_x = {x}
        cur = x
        while self.parent[cur] is not None:
            cur = self.parent[cur]
            anc_x.add(cur)
        path_y = [y]
        cur = y
        while cur not in anc_x:
            cur = self.parent[cur]
            path_y.append(cur)
        meet = cur
        out = set(path_y)
        cur = x
        while cur != meet:
            out.add(cur)
            cur = self.parent[cur]
        out.add(meet)
        return out


# ----------------------------------------------------------------- verifiers

def verify_forest_cover(F: ForestCover, G: Graph) -> tuple[bool, Optional[str]]:
    if set(F.parent) != set(G.vertices):
        return False, "cover universe differs from the graph's vertices"
    try:
        for v in G.vertices:
            F.chain(v)
    except ValueError:
        return False, "parent map has a cycle"
    for (u, v) in sorted(G.edges):
        if not F.comparable(u, v):
            return False, f"edge ({u!r}, {v!r}) joins incomparable vertices"
    return True, None


def verify_pebbled_forest_cover(C: PebbledForestCover, G: Graph,
                                k: Optional[int] = None) -> tuple[bool, Optional[str]]:
    k = C.k if k is None else k
    ok, msg = verify_forest_cover(C.cover, G)
    if not ok:
        return False, msg
    for v in G.vertices:
        p = C.pebbles.get(v)
        if not isinstance(p, int) or not (1 <= p <= k):
            return False, f"pebble of {v!r} not in 1..{k}"
    for (u, v) in sorted(G.edges):
        lo, hi = (u, v) if len(C.cover.chain(u)) <= len(C.cover.chain(v)) else (v, u)
        chain = C.cover.chain(hi)
        above = chain[chain.index(lo) + 1:]
        if any(C.pebbles[w] == C.pebbles[lo] for w in above):
            return False, f"pebble {C.pebbles[lo]} of {lo!r} reused on the chain up to {hi!r}"
    return True, None


def verify_tree_decomposition(T: TreeDecomposition, G: Graph) -> tuple[bool, Optional[str]]:
    try:
        T.root
    except ValueError as exc:
        return False, str(exc)
    placed = set().union(*(T.bags[n] for n in T.nodes)) if T.nodes else set()
    for v in G.vertices:
        if v not in placed:
            return False, f"element {v!r} is in no bag"
    for (u, v) in sorted(G.edges):
        if not any({u, v} <= T.bags[n] for n in T.nodes):
            return False, f"edge ({u!r}, {v!r}) is inside no bag"
    for v in G.vertices:
        holding = [n for n in T.nodes if v in T.bags[n]]
        for x in holding:
            for y in holding:
                for z in T.path_nodes(x, y):
                    if v not in T.bags[z]:
                        return False, f"bags containing {v!r} are not connected"
    return True, None


# ------------------------------------------------------------------- solvers

class _MaskGraph:
    """The Gaifman graph of A on integer vertex masks, bit i being `A.universe[i]`.

    One table per 8 vertices holds the union of the adjacency masks of every
    subset of them, so the neighborhood of a mask is three lookups (n <= 24).
    """

    def __init__(self, A: Structure):
        G, pos = gaifman_graph(A), {a: i for i, a in enumerate(A.universe)}
        adj = [sum(1 << pos[w] for w in G.neighbors(v)) for v in A.universe]
        self.tables = [[0] * (1 << len(adj[lo:lo + 8])) for lo in (0, 8, 16)]
        for lo, table in zip((0, 8, 16), self.tables):
            for x in range(1, len(table)):
                table[x] = table[x & (x - 1)] | adj[lo + (x & -x).bit_length() - 1]

    def neighbors(self, X: int) -> int:
        t0, t1, t2 = self.tables
        return t0[X & 255] | t1[X >> 8 & 255] | t2[X >> 16]

    def components(self, S: int) -> list[int]:
        """Connected components of the subgraph induced by S, lowest vertex
        first, each grown from its lowest vertex by flood fill."""
        t0, t1, t2 = self.tables
        out = []
        while S:
            comp = frontier = S & -S
            while frontier:
                frontier = (t0[frontier & 255] | t1[frontier >> 8 & 255]
                            | t2[frontier >> 16]) & S & ~comp
                comp |= frontier
            out.append(comp)
            S ^= comp
        return out

    def fill_neighbors(self, v: int, eliminated: int) -> int:
        """Vertices outside `eliminated` and v adjacent to v through eliminated ones."""
        closed = eliminated | v
        comp = next(c for c in self.components(closed) if c & v)
        return self.neighbors(comp) & ~closed


def _bits(S: int) -> list[int]:
    """The one-vertex masks of S in universe order."""
    return [1 << i for i in range(S.bit_length()) if S >> i & 1]


def tree_depth(A: Structure) -> tuple[int, ForestCover]:
    """Exact tree-depth of the Gaifman graph, with a minimum-height forest cover.

    A connected vertex mask recurses on vertex deletion (depth = 1 + best
    deletion, the first root in universe order among the best); a
    disconnected one is the maximum over its components.  Only connected
    masks are memoised, with their depth and root.
    """
    if len(A.universe) > TREE_DEPTH_BOUND:
        raise BoundExceeded(f"tree-depth solver handles at most {TREE_DEPTH_BOUND} elements")
    G = _MaskGraph(A)
    memo: dict[int, tuple[int, int]] = {}

    def solve(C: int) -> int:
        """Depth of the connected mask C, not yet in memo; records it there
        with its best root."""
        best, root = len(A.universe) + 1, 0
        for v in _bits(C):
            d = 0
            for comp in G.components(C ^ v):
                d = max(d, memo[comp][0] if comp in memo else solve(comp))
                if d + 1 >= best:
                    break
            if d + 1 < best:
                best, root = d + 1, v
                if best == 2:  # C has an edge: no root does better
                    break
        memo[C] = (best, root)
        return best

    full = (1 << len(A.universe)) - 1
    depth = max((solve(comp) for comp in G.components(full)), default=0)

    parent: dict[str, Optional[str]] = {}
    stack: list[tuple[int, Optional[str]]] = [(full, None)]
    while stack:
        S, above = stack.pop()
        for comp in G.components(S):
            root = memo[comp][1]
            name = A.universe[root.bit_length() - 1]
            parent[name] = above
            stack.append((comp ^ root, name))
    return depth, ForestCover({v: parent[v] for v in sorted(parent)})


def tree_width(A: Structure) -> tuple[int, TreeDecomposition]:
    """Exact tree-width via dynamic programming over elimination prefixes.

    The width of an elimination order is the largest fill-in degree at
    elimination time; minimizing over orders equals the tree-width.  tw[S], for
    orders eliminating the mask S first, is the min over v in S of
    max(tw[S - v], |fill-in of v|), the fill-in being shared by v's component
    of S.  The witness decomposition is rebuilt from an optimal order.
    """
    if len(A.universe) > TREE_WIDTH_BOUND:
        raise BoundExceeded(f"tree-width solver handles at most {TREE_WIDTH_BOUND} elements")
    n = len(A.universe)
    G = _MaskGraph(A)
    tw = [-1] * (1 << n)
    for S in range(1, 1 << n):
        best = n
        for comp in G.components(S):
            fill = (G.neighbors(comp) & ~S).bit_count()
            while comp and fill < best:
                v = comp & -comp
                comp ^= v
                if tw[S ^ v] < best:
                    best = max(tw[S ^ v], fill)
        tw[S] = best

    # reconstruct an optimal elimination order, last eliminated first
    elim: list[int] = []
    S = (1 << n) - 1
    while S:
        v = next(v for v in _bits(S)
                 if max(tw[S ^ v], G.fill_neighbors(v, S ^ v).bit_count()) == tw[S])
        elim.append(v)
        S ^= v
    elim.reverse()
    return tw[-1], _decomposition_from_order(A, G, elim)


def _decomposition_from_order(A: Structure, G: _MaskGraph, elim: list[int]) -> TreeDecomposition:
    """Standard construction: bag of v = v plus its fill neighbors; each bag
    hangs under a bag containing those neighbors.  Components are joined under
    an empty virtual root only when the graph is disconnected."""
    def name(v: int) -> str:
        return A.universe[v.bit_length() - 1]

    comps = sorted(G.components((1 << len(A.universe)) - 1),
                   key=lambda comp: min(map(name, _bits(comp))))
    eliminated = 0
    bag: dict[int, int] = {}
    for v in elim:
        bag[v] = G.fill_neighbors(v, eliminated) | v
        eliminated |= v

    nodes: list[str] = []
    parent: dict[str, Optional[str]] = {}
    bags: dict[str, frozenset[str]] = {}
    comp_roots: list[str] = []
    for comp in comps:
        members = [v for v in elim if v & comp]
        # last eliminated vertex of the component roots its subtree
        root = members[-1]
        local = [root]
        parent[name(root)] = None
        for v in reversed(members[:-1]):
            # at v's elimination its fill neighbors form a clique among the
            # later-eliminated vertices, so some existing bag contains them
            host = next(u for u in local if bag[v] & ~v & ~bag[u] == 0)
            local.append(v)
            parent[name(v)] = name(host)
        for v in local:
            nodes.append(name(v))
            bags[name(v)] = frozenset(map(name, _bits(bag[v])))
        comp_roots.append(name(root))
    if len(comps) > 1:
        top = ROOT
        while top in nodes:
            top += "#"
        nodes.insert(0, top)
        parent[top] = None
        bags[top] = frozenset()
        for root in comp_roots:
            parent[root] = top
    return TreeDecomposition(tuple(nodes), parent, bags)


# -------------------------------------------------- decomposition <-> cover

def make_orderly(T: TreeDecomposition) -> TreeDecomposition:
    """Split bags so every node introduces at most one element new to all of
    its ancestors; width is unchanged."""
    nodes: list[str] = []
    parent: dict[str, Optional[str]] = {}
    bags: dict[str, frozenset[str]] = {}
    counter = [0]

    def fresh(base: str) -> str:
        counter[0] += 1
        name = f"{base}@{counter[0]}"
        while name in T.nodes:
            counter[0] += 1
            name = f"{base}@{counter[0]}"
        return name

    def walk(node: str, new_parent: Optional[str], above: frozenset[str]) -> None:
        introduced = sorted(T.bags[node] - above)
        bag = T.bags[node]
        if len(introduced) <= 1:
            nodes.append(node)
            parent[node] = new_parent
            bags[node] = bag
            bottom = node
        else:
            bottom = new_parent
            shed = list(introduced)
            for i, v in enumerate(shed):
                name = node if i == len(shed) - 1 else fresh(node)
                nodes.append(name)
                parent[name] = bottom
                bags[name] = bag - frozenset(shed[i + 1:])
                bottom = name
        for child in T.children(node):
            walk(child, bottom, above | bag)

    walk(T.root, None, frozenset())
    return TreeDecomposition(tuple(nodes), parent, bags)


def decomposition_to_pebble_cover(T: TreeDecomposition, k: int) -> PebbledForestCover:
    """Turn a width < k decomposition into a k-pebble forest cover.

    The decomposition is made orderly, each element is ordered by the least
    bag containing it, and pebbles are assigned top-down by the least index
    free in that bag.
    """
    if T.width >= k:
        raise ValueError(f"decomposition width {T.width} is not below k={k}")
    T = make_orderly(T)
    depth = {}

    def set_depth(node: str, d: int) -> None:
        depth[node] = d
        for c in T.children(node):
            set_depth(c, d + 1)

    set_depth(T.root, 0)

    # least node containing each element; orderliness makes this injective
    tau: dict[str, str] = {}
    for v in sorted(set().union(*(T.bags[n] for n in T.nodes))):
        holding = [n for n in T.nodes if v in T.bags[n]]
        tau[v] = min(holding, key=depth.__getitem__)

    def node_le(x: str, y: str) -> bool:
        cur: Optional[str] = y
        while cur is not None:
            if cur == x:
                return True
            cur = T.parent[cur]
        return False

    parent_of: dict[str, Optional[str]] = {}
    for v, node in tau.items():
        above = [w for w in tau if w != v and node_le(tau[w], node)]
        parent_of[v] = max(above, key=lambda w: depth[tau[w]], default=None)

    pebbles: dict[str, int] = {}
    for v in sorted(tau, key=lambda v: (depth[tau[v]], v)):
        taken = {pebbles[w] for w in T.bags[tau[v]] - {v} if w in pebbles}
        pebbles[v] = min(p for p in range(1, k + 1) if p not in taken)
    return PebbledForestCover(ForestCover(parent_of), pebbles, k)


def pebble_cover_to_decomposition(C: PebbledForestCover) -> TreeDecomposition:
    """Bags are the active predecessors: w stays active at v while no vertex
    strictly between them (inclusive of v) reuses w's pebble."""
    cover, p = C.cover, C.pebbles
    elements = sorted(cover.parent)
    root = ROOT
    while root in elements:
        root += "#"
    nodes = [root] + elements
    parent: dict[str, Optional[str]] = {root: None}
    bags: dict[str, frozenset[str]] = {root: frozenset()}
    for v in elements:
        parent[v] = cover.parent[v] if cover.parent[v] is not None else root
        chain = cover.chain(v)
        active = set()
        for i, w in enumerate(chain):
            if all(p[u] != p[w] for u in chain[i + 1:]):
                active.add(w)
        bags[v] = frozenset(active)
    return TreeDecomposition(tuple(nodes), parent, bags)


# ---------------------------------------------------------------- JSON forms

def forest_cover_to_json(F: ForestCover) -> dict:
    return {"kind": "forest-cover",
            "parent": {v: F.parent[v] for v in sorted(F.parent)},
            "height": F.height}


def forest_cover_from_json(data) -> ForestCover:
    return ForestCover(dict(data["parent"]))


def pebbled_cover_to_json(C: PebbledForestCover) -> dict:
    return {"kind": "pebbled-forest-cover",
            "parent": {v: C.cover.parent[v] for v in sorted(C.cover.parent)},
            "pebbles": {v: C.pebbles[v] for v in sorted(C.pebbles)},
            "k": C.k}


def pebbled_cover_from_json(data) -> PebbledForestCover:
    return PebbledForestCover(ForestCover(dict(data["parent"])),
                              {v: int(p) for v, p in data["pebbles"].items()},
                              int(data["k"]))


def decomposition_to_json(T: TreeDecomposition) -> dict:
    return {"kind": "tree-decomposition",
            "nodes": list(T.nodes),
            "parent": {n: T.parent[n] for n in T.nodes},
            "bags": {n: sorted(T.bags[n]) for n in T.nodes},
            "width": T.width}


def decomposition_from_json(data) -> TreeDecomposition:
    return TreeDecomposition(tuple(data["nodes"]),
                             {n: data["parent"][n] for n in data["nodes"]},
                             {n: frozenset(data["bags"][n]) for n in data["nodes"]})
