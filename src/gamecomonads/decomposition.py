"""Forest covers, tree decompositions, and exact tree-depth / tree-width.

Both solvers are exact and desk-scale only, and work on integer vertex masks
(components by flood fill).  Tree-depth is a memoized recursion over connected
masks whose root scan reads a memoized C - v without a flood fill, and stops
once td(C) >= td(C - v), or a root adjacent to all of C, proves the best root
optimal.  Tree-width recurses over elimination prefixes S, each asked only
whether tw[S] lies below a bound: an answer at or above it is kept as a lower
bound on tw[S], and the scan over the last vertex stops once the best meets
the lower bound that each component of S gives (its fill-in and least degree).
Any vertex can go last in some optimal order, so tw = tw[V - v0] is one query.
Ties go to the first vertex in universe order and the tree-width order is
rebuilt by that rule from threshold queries; each has a verifiable witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .strategy import exact_int
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


# ----------------------------------------------------------------- verifiers

def _parent_fault(parent: dict[str, Optional[str]], one_root: bool) -> Optional[str]:
    """Why `parent` is not a forest on its keys (a tree when one_root), or None.

    Every parent must be a key or None, and every key must reach a root
    without repeating a key."""
    for n, p in parent.items():
        if p is not None and p not in parent:
            return f"parent {p!r} of {n!r} is not a node"
    rooted = {n for n, p in parent.items() if p is None}
    if one_root and len(rooted) != 1:
        return f"parent map has {len(rooted)} roots, not exactly one"
    for cur in parent:
        seen: set[str] = set()
        while cur not in rooted:
            if cur in seen:
                return f"parent map has a cycle through {cur!r}"
            seen.add(cur)
            cur = parent[cur]
        rooted |= seen
    return None


def verify_forest_cover(F: ForestCover, G: Graph) -> tuple[bool, Optional[str]]:
    if set(F.parent) != set(G.vertices):
        return False, "cover universe differs from the graph's vertices"
    fault = _parent_fault(F.parent, one_root=False)
    if fault:
        return False, fault
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
        if type(p) is not int or not (1 <= p <= k):
            return False, f"pebble of {v!r} not in 1..{k}"
    for (u, v) in sorted(G.edges):
        lo, hi = (u, v) if len(C.cover.chain(u)) <= len(C.cover.chain(v)) else (v, u)
        chain = C.cover.chain(hi)
        above = chain[chain.index(lo) + 1:]
        if any(C.pebbles[w] == C.pebbles[lo] for w in above):
            return False, f"pebble {C.pebbles[lo]} of {lo!r} reused on the chain up to {hi!r}"
    return True, None


def verify_tree_decomposition(T: TreeDecomposition, G: Graph) -> tuple[bool, Optional[str]]:
    if set(T.parent) != set(T.nodes):
        return False, "parent map does not name exactly the nodes"
    fault = _parent_fault(T.parent, one_root=True)
    if fault:
        return False, fault
    bags = [T.bags[n] for n in T.nodes]
    placed = set().union(*bags)
    for v in G.vertices:
        if v not in placed:
            return False, f"element {v!r} is in no bag"
    for (u, v) in sorted(G.edges):
        if not any(u in bag and v in bag for bag in bags):
            return False, f"edge ({u!r}, {v!r}) is inside no bag"
    # the bags holding v are connected iff exactly one holding node has no
    # parent or a parent that lacks v (the parent map is a tree by now)
    tops: dict[str, int] = {}
    for n in T.nodes:
        p = T.parent[n]
        for v in T.bags[n]:
            if p is None or v not in T.bags[p]:
                tops[v] = tops.get(v, 0) + 1
    for v in G.vertices:
        if tops[v] != 1:
            return False, f"bags containing {v!r} are not connected"
    return True, None


# ------------------------------------------------------------------- solvers

class _MaskGraph:
    """The Gaifman graph of A on integer vertex masks, bit i being `A.universe[i]`.

    One table per 8 vertices holds the union of the adjacency masks of every
    subset of them, so the neighborhood of a mask is three lookups (n <= 24);
    a second such table holds the least degree over every subset.
    """

    def __init__(self, A: Structure):
        G, pos = gaifman_graph(A), {a: i for i, a in enumerate(A.universe)}
        adj = [sum(1 << pos[w] for w in G.neighbors(v)) for v in A.universe]
        self.tables: list[list[int]] = []
        self.degree_tables: list[list[int]] = []
        for lo in (0, 8, 16):
            # the subsets holding vertex lo + i follow those without it
            table, degree = [0], [len(adj)]
            for a in adj[lo:lo + 8]:
                d = a.bit_count()
                table += [t | a for t in table]
                degree += [e if e < d else d for e in degree]
            self.tables.append(table)
            self.degree_tables.append(degree)

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

    def least_degree(self, X: int) -> int:
        """The least degree in the whole graph of a vertex of the nonempty X."""
        d0, d1, d2 = self.degree_tables
        return min(d0[X & 255], d1[X >> 8 & 255], d2[X >> 16])

    def fill_neighbors(self, v: int, eliminated: int) -> int:
        """Vertices outside `eliminated` and v adjacent to v through eliminated ones."""
        comp = frontier = v  # flood fill from v alone
        while frontier:
            comp |= (frontier := self.neighbors(frontier) & eliminated & ~comp)
        return self.neighbors(comp) & ~(eliminated | v)


def _bits(S: int) -> list[int]:
    """The one-vertex masks of S in universe order."""
    return [1 << i for i in range(S.bit_length()) if S >> i & 1]


def tree_depth(A: Structure) -> tuple[int, ForestCover]:
    """Exact tree-depth of the Gaifman graph, with a minimum-height forest cover.

    A connected vertex mask C recurses on vertex deletion (depth = 1 + best
    deletion, the first best root in universe order), a disconnected one on
    its components (the maximum).  Only connected masks are memoised, with
    depth and root, so a C - v found in the memo is read there, not split.

    Tree-depth is monotone under subgraphs, so every depth d seen for C - v,
    even a partial maximum over its components, bounds td(C) from below, and
    so does d + 1 if v is adjacent to all of C - v (td(C) = 1 + td(C - v));
    the scan stops once the best root meets the bound, a proved optimum.  Roots
    are taken on strict improvement only, so the first optimal root is kept.
    """
    if len(A.universe) > TREE_DEPTH_BOUND:
        raise BoundExceeded(f"tree-depth solver handles at most {TREE_DEPTH_BOUND} elements")
    G = _MaskGraph(A)
    full = (1 << len(A.universe)) - 1
    closed = {v: G.neighbors(v) | v for v in _bits(full)}
    memo: dict[int, tuple[int, int]] = {}

    def solve(C: int) -> int:
        """Depth of the connected mask C, not yet in memo; records it with its root."""
        best, root, lb, rest = len(A.universe) + 1, 0, 2, C  # td(C) >= 2 once C has an edge
        while rest:
            v = rest & -rest
            rest ^= v
            d = known[0] if (known := memo.get(C ^ v)) else 0  # a hit is all of C - v
            for comp in () if known else G.components(C ^ v):
                e = known[0] if (known := memo.get(comp)) else solve(comp)
                d = e if e > d else d
                if d >= best:
                    break
            if d + 1 < best:
                best, root = d + 1, v
            # td(C) >= td(C - v) >= d, and td(C) = 1 + td(C - v) if v sees all of C - v
            lb = d if d > lb else lb
            if best <= lb or C & ~closed[v] == 0:
                break
        memo[C] = (best, root)
        return best

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
    """Exact tree-width via a bounded search over elimination prefixes.

    The width of an elimination order is the largest fill-in degree at
    elimination time; minimizing over orders equals the tree-width.  tw[S], for
    orders eliminating the mask S first, is the min over v in S of
    max(tw[S - v], |fill-in of v|), the fill-in being shared by v's component
    of S.  Each S is asked only for a value below a bound, the best found so
    far; a failed query memoises that bound as a lower bound on tw[S].  Each
    component C of S also bounds tw[S] from below, by its fill-in (when its last
    vertex goes) and its least degree (when its first goes), and the scan over v
    stops once the best meets these bounds.  tw = tw[V - v] for every v (but
    tw[empty] = -1): a chordal completion of optimal width has a perfect
    elimination order ending at any chosen vertex (Dirac 1961; Rose 1970), so
    the top level asks V less its first vertex only.  The witness is rebuilt
    from the order whose last vertex in each prefix S is the first in universe
    order with fill-in <= tw[S] and tw[S - v] < tw[S] + 1, the full table's rule.
    """
    if len(A.universe) > TREE_WIDTH_BOUND:
        raise BoundExceeded(f"tree-width solver handles at most {TREE_WIDTH_BOUND} elements")
    n = len(A.universe)
    G = _MaskGraph(A)
    exact: dict[int, int] = {0: -1}
    floor: dict[int, int] = {}

    def below(S: int, ub: int) -> int:
        """tw[S] if it is below ub, else a lower bound on it that is at least ub."""
        if S in exact:
            return exact[S]
        lb = floor.get(S, -1)
        if lb >= ub:
            return lb
        comps = []
        for comp in G.components(S):
            fill = (G.neighbors(comp) & ~S).bit_count()
            comps.append((comp, fill))
            lb = max(lb, fill, G.least_degree(comp))
        best = ub
        for comp, fill in comps:
            while comp and fill < best and lb < best:
                v = comp & -comp
                comp ^= v
                t = exact.get(S ^ v)  # saves a call on the most common answer
                if t is None:
                    t = below(S ^ v, best)
                if t < best:
                    best = max(t, fill)
        if best < ub:
            exact[S] = best
            return best
        floor[S] = max(ub, lb)
        return floor[S]

    S = (1 << n) - 1
    width = exact[S] = max(0, below(S ^ 1, n))  # tw[empty] = -1 when n = 1

    # reconstruct an optimal elimination order, last eliminated first
    elim: list[int] = []
    while S:
        t = exact[S]
        v = next(v for v in _bits(S)
                 if G.fill_neighbors(v, S ^ v).bit_count() <= t and below(S ^ v, t + 1) <= t)
        elim.append(v)
        S ^= v
    elim.reverse()
    return width, _decomposition_from_order(A, G, elim)


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

def decomposition_to_pebble_cover(T: TreeDecomposition, k: int) -> PebbledForestCover:
    """Turn a width < k decomposition into a k-pebble forest cover, in one
    walk down from the root.

    A bag introduces the elements in no bag above it.  They hang in sorted
    order on a chain below the last element introduced above, and each takes
    the least pebble that no pebbled element of its bag holds: those are the
    bag's elements from above and the ones just introduced, fewer than k.
    """
    if T.width >= k:
        raise ValueError(f"decomposition width {T.width} is not below k={k}")
    parent: dict[str, Optional[str]] = {}
    pebbles: dict[str, int] = {}
    stack: list[tuple[str, Optional[str], frozenset[str]]] = [(T.root, None, frozenset())]
    while stack:
        node, last, above = stack.pop()
        bag = T.bags[node]
        for v in sorted(bag - above):
            taken = {pebbles[w] for w in bag if w in pebbles}
            pebbles[v] = next(p for p in range(1, k + 1) if p not in taken)
            parent[v], last = last, v
        stack += [(child, last, above | bag) for child in T.children(node)]
    return PebbledForestCover(ForestCover(parent), pebbles, k)


def pebble_cover_to_decomposition(C: PebbledForestCover) -> TreeDecomposition:
    """Bags are the active predecessors: along the chain of v, the last
    holder of each pebble (an element stays active until its pebble recurs)."""
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
        bags[v] = frozenset({p[w]: w for w in cover.chain(v)}.values())
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
                              {v: exact_int(p) for v, p in data["pebbles"].items()},
                              exact_int(data["k"]))


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
