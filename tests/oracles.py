"""Independent brute-force oracles the test suite checks the library against.

Everything in here deliberately avoids the library's decision procedures:
plain enumeration, textbook recursions, permutation search and naive
fixpoint iteration, using only the library's primitives (structures, plays,
partial homomorphism/isomorphism checks and bipartite matching).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import lru_cache
from itertools import combinations_with_replacement, groupby, permutations, product
from operator import itemgetter
from typing import Callable, Optional, Sequence

from gamecomonads.coalgebra import COMONADS
from gamecomonads.comonad import play_id, play_structure
from gamecomonads.decomposition import (ROOT, TREE_DEPTH_BOUND, TREE_WIDTH_BOUND, ForestCover,
                                        TreeDecomposition, _bits, _decomposition_from_order,
                                        _MaskGraph)
from gamecomonads.ef import EfRules, coextend_play, ef_plays
from gamecomonads.modal import ModalRules, kripke_view, modal_plays
from gamecomonads.pebble import PebbleRules, Position, pebble_plays
from gamecomonads.refine import CAP
from gamecomonads.strategy import ANSWERS, GAMES, SHAPE, certificate
from gamecomonads.structures import (BoundExceeded, CapExceeded, Graph, Structure, extensions,
                                     gaifman_graph, is_homomorphism, is_partial_homomorphism,
                                     is_partial_isomorphism, occurrences,
                                     require_same_signature, validate_structure)


def perfect_matching(left: Sequence, right: Sequence, edge: Callable) -> Optional[dict]:
    """A perfect matching {left -> right} by Kuhn's augmenting paths, tried
    in order, or None if none exists."""
    if len(left) != len(right):
        return None
    match_right: dict = {}

    def augment(u, visited: set) -> bool:
        for v in right:
            if v in visited or not edge(u, v):
                continue
            visited.add(v)
            if v not in match_right or augment(match_right[v], visited):
                match_right[v] = u
                return True
        return False

    for u in left:
        if not augment(u, set()):
            return None
    return {u: v for v, u in match_right.items()}


def answers(tier: int, xs, ys, ok: Callable[[str, str], bool]
            ) -> Optional[list[tuple[str, str]]]:
    """Duplicator's answers to one group of challenges as (x, y) pairs, or
    None if some challenge has no response `ok` accepts: the first accepted
    y in order for each x, at tier 2 then the first accepted x for each y,
    at tier 3 a perfect matching sorted by x.  The reference for
    `strategy.answers` (tier 1) and `strategy.answers_by_colour`."""
    if tier == 3:
        matching = perfect_matching(xs, ys, ok)
        return None if matching is None else sorted(matching.items())
    out = []
    for x in xs:
        y = next((y for y in ys if ok(x, y)), None)
        if y is None:
            return None
        out.append((x, y))
    for y in ys if tier == 2 else ():
        x = next((x for x in xs if ok(x, y)), None)
        if x is None:
            return None
        out.append((x, y))
    return out


def brute_homomorphism_exists(A: Structure, B: Structure) -> bool:
    """Try all |B|^|A| maps."""
    for values in product(B.universe, repeat=len(A.universe)):
        h = dict(zip(A.universe, values))
        if is_homomorphism(h, A, B):
            return True
    return False


def brute_isomorphism_exists(A: Structure, B: Structure) -> bool:
    """Try all bijections of A's universe onto B's, each with its inverse."""
    if len(A.universe) != len(B.universe):
        return False
    for values in permutations(B.universe):
        h = dict(zip(A.universe, values))
        if is_homomorphism(h, A, B) and is_homomorphism(dict(zip(values, A.universe)), B, A):
            return True
    return False


def all_digraphs(max_size: int) -> list[Structure]:
    """Every structure with one binary relation on universes of size 1..max_size."""
    out = []
    for n in range(1, max_size + 1):
        universe = [f"u{i}" for i in range(n)]
        cells = [(x, y) for x in universe for y in universe]
        for bits in product((0, 1), repeat=len(cells)):
            tups = [[x, y] for (x, y), b in zip(cells, bits) if b]
            out.append(validate_structure({"R": 2}, universe, {"R": tups}))
    return out


def relabelled(rng, A: Structure) -> Structure:
    """An isomorphic copy of A on fresh names, listed in a shuffled order."""
    names = {a: f"y{i}" for i, a in enumerate(rng.sample(A.universe, len(A.universe)))}
    universe = rng.sample(sorted(names.values()), len(names))
    return validate_structure(dict(A.sig.relations), universe,
                              {r: [[names[x] for x in t] for t in ts]
                               for r, ts in A.relations.items()})


@lru_cache(maxsize=None)
def lin_game_textbook(m: int, n: int, k: int) -> bool:
    """Classic recursive decision of the k-round comparison game on strict
    linear orders, by splitting into independent left/right segments."""
    if k == 0:
        return True
    if (m == 0) != (n == 0):
        return False
    for i in range(1, m + 1):
        if not any(lin_game_textbook(i - 1, j - 1, k - 1)
                   and lin_game_textbook(m - i, n - j, k - 1)
                   for j in range(1, n + 1)):
            return False
    for j in range(1, n + 1):
        if not any(lin_game_textbook(i - 1, j - 1, k - 1)
                   and lin_game_textbook(m - i, n - j, k - 1)
                   for i in range(1, m + 1)):
            return False
    return True


def lin_closed_form(m: int, n: int, k: int) -> bool:
    return m == n or (m >= 2 ** k - 1 and n >= 2 ** k - 1)


def all_forests(vertices: tuple[str, ...]) -> list[dict]:
    """Every acyclic parent map on the given vertices."""
    out = []
    options = [list(vertices) + [None]] * len(vertices)
    for combo in product(*options):
        parent = dict(zip(vertices, combo))
        if any(parent[v] == v for v in vertices):
            continue
        ok = True
        for v in vertices:
            seen = {v}
            cur = parent[v]
            while cur is not None:
                if cur in seen:
                    ok = False
                    break
                seen.add(cur)
                cur = parent[cur]
            if not ok:
                break
        if ok:
            out.append(parent)
    return out


def cover_height(parent: dict) -> int:
    def depth(v):
        d = 1
        while parent[v] is not None:
            v = parent[v]
            d += 1
        return d
    return max(depth(v) for v in parent) if parent else 0


def chain_of(parent: dict, v: str) -> list[str]:
    out = [v]
    while parent[out[-1]] is not None:
        out.append(parent[out[-1]])
    out.reverse()
    return out


def is_cover_of(parent: dict, edges) -> bool:
    for (u, v) in edges:
        cu, cv = chain_of(parent, u), chain_of(parent, v)
        if cu[:len(cv)] != cv and cv[:len(cu)] != cu:
            return False
    return True


def brute_tree_depth(A: Structure) -> int:
    """Minimum height over all vertex orders of the elimination forest: each
    component is rooted at its first vertex in the order, and what is left
    of it below that root is split the same way.

    Every elimination forest covers the graph (an edge never leaves a
    component, so its later end lies below its earlier one), and an
    optimal cover listed root-first gives a forest no higher than itself.
    """
    G = gaifman_graph(A)
    adj = {v: set(G.neighbors(v)) for v in G.vertices}

    def height(order: tuple[str, ...]) -> int:
        left = set(order)
        best = 0
        for v in order:
            if v not in left:
                continue
            comp, stack = {v}, [v]
            while stack:
                for w in adj[stack.pop()] & left - comp:
                    comp.add(w)
                    stack.append(w)
            left -= comp
            best = max(best, 1 + height(tuple(w for w in order if w in comp and w != v)))
        return best

    return min(height(order) for order in permutations(G.vertices))


def brute_tree_depth_by_forests(A: Structure) -> int:
    """Minimum height over all forest covers of the Gaifman graph."""
    G = gaifman_graph(A)
    best = None
    for parent in all_forests(G.vertices):
        if is_cover_of(parent, sorted(G.edges)):
            h = cover_height(parent)
            best = h if best is None else min(best, h)
    return best


def brute_tree_width(A: Structure) -> int:
    """Minimum over all elimination orders of the max fill-in degree."""
    G = gaifman_graph(A)
    base = {v: set(G.neighbors(v)) for v in G.vertices}
    best = None
    for order in permutations(G.vertices):
        adj = {v: set(ns) for v, ns in base.items()}
        width = 0
        for v in order:
            width = max(width, len(adj[v]))
            for x in adj[v]:
                for y in adj[v]:
                    if x != y:
                        adj[x].add(y)
            for x in adj[v]:
                adj[x].discard(v)
            del adj[v]
        best = width if best is None else min(best, width)
    return best


def brute_pebble_number(A: Structure) -> int:
    """Least k admitting a k-pebble forest cover: enumerate covers, then find
    the least pebble count by backtracking over assignments."""
    G = gaifman_graph(A)
    edges = sorted(G.edges)
    best = len(G.vertices)
    for parent in all_forests(G.vertices):
        if not is_cover_of(parent, edges):
            continue
        chains = {v: chain_of(parent, v) for v in G.vertices}
        # conflict pairs: (low, w) for every edge and every w strictly above low
        conflicts = set()
        for (u, v) in edges:
            lo, hi = (u, v) if len(chains[u]) <= len(chains[v]) else (v, u)
            chain = chains[hi]
            for w in chain[chain.index(lo) + 1:]:
                conflicts.add((lo, w))
        verts = sorted(G.vertices, key=lambda v: len(chains[v]))

        def colorable(k: int) -> bool:
            assignment = {}

            def go(i: int) -> bool:
                if i == len(verts):
                    return True
                v = verts[i]
                for c in range(1, k + 1):
                    if all(assignment.get(w) != c for (x, w) in conflicts if x == v) \
                            and all(assignment.get(x) != c for (x, w) in conflicts if w == v):
                        assignment[v] = c
                        if go(i + 1):
                            return True
                        del assignment[v]
                return False

            return go(0)

        for k in range(1, best + 1):
            if colorable(k):
                best = min(best, k)
                break
    return best


def brute_coalgebra(tag: str, A, k: int, alpha: dict) -> bool:
    """Whether alpha, element -> play, is a coalgebra of the comonad tag at
    index k (A pointed for modal), by the definition: every play ends at its
    element, every prefix p of every play is the play of the element p ends
    at, and alpha, read as play ids, is a homomorphism into the structure of
    all plays (a pointed one, for modal; for pebble, of plays no longer than
    the longest play of alpha).  That structure induces its substructure on
    the prefixes of alpha's plays, so h is checked into that one alone."""
    base = A.base if tag == "modal" else A
    counit = (lambda s: s[-1][1]) if tag == "pebble" else (lambda s: s[-1])
    step = 2 if tag == "modal" else 1
    if any(a not in alpha or not alpha[a] or counit(alpha[a]) != a for a in base.universe):
        return False
    for s in map(alpha.get, base.universe):
        if any(alpha.get(counit(s[:i])) != s[:i] for i in range(1, len(s) + 1, step)):
            return False
    if tag == "ef":
        plays = ef_plays(A, k)
    elif tag == "pebble":
        plays = pebble_plays(A, k, max(len(s) for s in alpha.values()))
    else:
        plays = modal_plays(A, k)
    image = {s[:i] for s in map(alpha.get, base.universe) for i in range(1, len(s) + 1, step)}
    if not image <= set(plays):
        return False
    M = play_structure(COMONADS[tag], A, [s for s in plays if s in image])
    h = {a: play_id(alpha[a]) for a in base.universe}
    if tag == "modal":
        return is_homomorphism(h, base, M.base) and h[A.point] == M.point
    return is_homomorphism(h, A, M)


def brute_graded_bisim(P, Q, k: int) -> bool:
    """Pairwise recursion enumerating every successor bijection outright."""
    KA, KB = kripke_view(P.base), kripke_view(Q.base)
    labels = sorted(set(KA.transitions))

    @lru_cache(maxsize=None)
    def eq(a: str, b: str, j: int) -> bool:
        if KA.profile(a) != KB.profile(b):
            return False
        if j == 0:
            return True
        for lab in labels:
            sa, sb = KA.successors(a, lab), KB.successors(b, lab)
            if len(sa) != len(sb):
                return False
            if not any(all(eq(x, y, j - 1) for x, y in zip(sa, perm))
                       for perm in permutations(sb)):
                return False
        return True

    return eq(P.point, Q.point, k)


# Modal approximants by naive level iteration on world pairs, and the
# existential modal strategy as a table on plays of the unfolding.

def _kripke_pair(P, Q, k: int):
    if k < 1:
        raise ValueError("k must be >= 1")
    KA, KB = kripke_view(P.base), kripke_view(Q.base)
    return KA, KB, sorted(KA.transitions)


def _simulation_levels(P, Q, k: int) -> list[set]:
    """Entry j: the world pairs from which Duplicator survives j more steps
    of the existential game."""
    KA, KB, labels = _kripke_pair(P, Q, k)
    rel = [{(a, b) for a in KA.worlds for b in KB.worlds if KA.profile(a) <= KB.profile(b)}]
    for _ in range(k):
        prev = rel[-1]
        rel.append({(a, b) for (a, b) in prev
                    if all(any((ap, bp) in prev for bp in KB.successors(b, lab))
                           for lab in labels for ap in KA.successors(a, lab))})
    return rel


def simulation_approx(P, Q, k: int) -> bool:
    """Depth-k simulation: propositions must transfer forward and every
    transition must be matched, recursively to depth k."""
    return (P.point, Q.point) in _simulation_levels(P, Q, k)[k]


def simulation_strategy(P, Q, k: int, cap: int = 200_000) -> Optional[dict]:
    """A winning strategy of the existential modal game as a table from the
    plays of P's depth-k unfolding to worlds of Q (the first simulated
    successor in world order); None if Duplicator does not win."""
    KA, KB, labels = _kripke_pair(P, Q, k)
    rel = _simulation_levels(P, Q, k)
    if (P.point, Q.point) not in rel[k]:
        return None
    table = {(P.point,): Q.point}
    frontier = [((P.point,), Q.point)]
    for depth in range(k, 0, -1):
        nxt = []
        for s, b in frontier:
            for lab in labels:
                for ap in KA.successors(s[-1], lab):
                    bp = next(x for x in KB.successors(b, lab) if (ap, x) in rel[depth - 1])
                    table[s + (lab, ap)] = bp
                    nxt.append((s + (lab, ap), bp))
        frontier = nxt
        if len(table) > cap:
            raise CapExceeded(len(table), cap, "strategy-table entries")
    return table


def _bisimulation_levels(P, Q, k: int) -> list[set]:
    """Entry j: the world pairs from which Duplicator survives j more steps
    of the back-and-forth game."""
    KA, KB, labels = _kripke_pair(P, Q, k)
    rel = [{(a, b) for a in KA.worlds for b in KB.worlds if KA.profile(a) == KB.profile(b)}]
    for _ in range(k):
        prev = rel[-1]
        rel.append({(a, b) for (a, b) in prev
                    if all(any((ap, bp) in prev for bp in KB.successors(b, lab))
                           for lab in labels for ap in KA.successors(a, lab))
                    and all(any((ap, bp) in prev for ap in KA.successors(a, lab))
                            for lab in labels for bp in KB.successors(b, lab))})
    return rel


def bisim_approx(P, Q, k: int) -> bool:
    """Depth-k bisimulation: propositions agree and transitions match both ways."""
    return (P.point, Q.point) in _bisimulation_levels(P, Q, k)[k]


def graded_levels(P, Q, k: int) -> list[dict]:
    """Iterated partition refinement on the disjoint union of the two worlds.

    Level-0 classes are the proposition profiles; the class at level j+1 is
    the profile together with, per label, the multiset of level-j classes of
    the successors.  Entry j maps every (side, world) to its level-j class id.
    """
    KA, KB, labels = _kripke_pair(P, Q, k)
    views = {0: KA, 1: KB}
    nodes = [(0, w) for w in KA.worlds] + [(1, w) for w in KB.worlds]
    keys: dict = {}
    levels = [{(side, w): keys.setdefault(tuple(sorted(views[side].profile(w))), len(keys))
               for side, w in nodes}]
    for _ in range(k):
        keys, cls = {}, levels[-1]
        levels.append({(side, w): keys.setdefault(
                           (tuple(sorted(views[side].profile(w))),
                            tuple((lab, tuple(sorted(cls[(side, v)]
                                                     for v in views[side].successors(w, lab))))
                                  for lab in labels)), len(keys))
                       for side, w in nodes})
    return levels


def graded_classes(P, Q, k: int) -> dict:
    """The level-k classes of `graded_levels`."""
    return graded_levels(P, Q, k)[k]


def graded_bisim_approx(P, Q, k: int) -> bool:
    """Graded bisimulation to depth k via partition refinement: a successor
    bijection respecting the level-j relation exists iff the multisets of
    level-j classes agree."""
    cls = graded_classes(P, Q, k)
    return cls[(0, P.point)] == cls[(1, Q.point)]


def modal_game_reference(P, Q, k: int, tier: int,
                         build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
    """The k-round modal game of a tier by a sweep over world pairs: the
    pairs met within i steps from the points, along one label and with
    passing propositions, are the first `ends[i]` of `order`; `win[d]` holds
    those met within k - d steps from which every label's challenges have
    `answers` into `win[d - 1]`, until a round drops no pair.  The
    library's engine at every tier before tiers 2 and 3 moved to colour
    refinement; the certificate answers by the same `win` levels."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rules = ModalRules(P, Q, k, tier)
    succ = [(sa, sb) for _, sa, sb in rules.succ]
    order = [rules.points] if rules.passes(*rules.points) else []
    seen, ends, start = set(order), [len(order)], 0
    while len(ends) <= k and start < len(order):
        for a, b in order[start:]:
            for sa, sb in succ:
                for x in sa.get(a, ()):
                    for y in sb.get(b, ()):
                        if (x, y) not in seen and rules.passes(x, y):
                            seen.add((x, y))
                            order.append((x, y))
        start = ends[-1]
        ends.append(len(order))
    win = [seen]
    for d in range(1, k + 1):
        prev = win[-1]
        kept = [p for p in order[:ends[min(k - d, len(ends) - 1)]] if p in prev]
        win.append({(a, b) for a, b in kept if all(
            answers(tier, sa.get(a, ()), sb.get(b, ()), lambda x, y: (x, y) in prev) is not None
            for sa, sb in succ)})
        if rules.points not in win[-1] or len(win[-1]) == len(kept):
            break
    top = len(win) - 1
    if rules.points not in win[top] or not build_certificate:
        return rules.points in win[top], None
    return True, certificate(rules, tier, lambda pos, _, xs, ys: answers(
        tier, xs, ys, lambda x, y: (x, y) in win[min(pos[2] - 1, top)]))


def brute_bijection_round(A: Structure, B: Structure) -> bool:
    """One-round bijection game by trying all |A|! bijections."""
    from gamecomonads.structures import is_partial_isomorphism
    if len(A.universe) != len(B.universe):
        return False
    for perm in permutations(B.universe):
        psi = dict(zip(A.universe, perm))
        if all(is_partial_isomorphism([(a, psi[a])], A, B) for a in A.universe):
            return True
    return False


def brute_bijection_game(A: Structure, B: Structure, k: int) -> bool:
    """k-round bijection game by explicit enumeration of all bijections."""
    from gamecomonads.structures import is_partial_isomorphism
    if len(A.universe) != len(B.universe):
        return False

    @lru_cache(maxsize=None)
    def value(pairs: frozenset, rounds: int) -> bool:
        if rounds == 0:
            return True
        for perm in permutations(B.universe):
            psi = dict(zip(A.universe, perm))
            if all(is_partial_isomorphism(pairs | {(a, psi[a])}, A, B)
                   and value(pairs | {(a, psi[a])}, rounds - 1)
                   for a in A.universe):
                return True
        return False

    return value(frozenset(), k)


def wl_distinguishes(A: Structure, B: Structure) -> bool:
    """Joint color refinement on the disjoint union: structures differ iff
    their stable color multisets differ (decides 2-variable counting logic
    on undirected graphs)."""
    from gamecomonads.structures import gaifman_graph
    GA, GB = gaifman_graph(A), gaifman_graph(B)
    nodes = [("a", v) for v in GA.vertices] + [("b", v) for v in GB.vertices]

    def neighbors(node):
        side, v = node
        G = GA if side == "a" else GB
        return [(side, w) for w in G.neighbors(v)]

    colors = {n: 0 for n in nodes}
    for _ in range(len(nodes)):
        keys = {}
        colors = {n: keys.setdefault(
            (colors[n], tuple(sorted(colors[m] for m in neighbors(n)))), len(keys))
            for n in nodes}
    left = sorted(colors[n] for n in nodes if n[0] == "a")
    right = sorted(colors[n] for n in nodes if n[0] == "b")
    return left != right


def pebble_resweep_fixpoint(A: Structure, B: Structure, k: int, tier: int) -> set:
    """Surviving positions of the k-pebble game of a tier, by re-sweeping.

    Enumerates every multiset of at most k (source, target) pairs, keeps the
    partial homomorphisms (tier 1) or partial isomorphisms (tiers 2 and 3),
    then drops any position with a base from which some Spoiler move has no
    surviving response (tier 3: no bijection of surviving responses), sweeping
    the sorted survivors until nothing changes.
    """
    winning = is_partial_homomorphism if tier == 1 else is_partial_isomorphism
    pairs = sorted((a, b) for a in A.universe for b in B.universe)
    surviving = {p for size in range(k + 1)
                 for p in combinations_with_replacement(pairs, size) if winning(p, A, B)}

    def alive(base, a, b) -> bool:
        return tuple(sorted(base + ((a, b),))) in surviving

    def good(base) -> bool:
        if tier == 3:
            return perfect_matching(A.universe, B.universe,
                                    lambda a, b: alive(base, a, b)) is not None
        return (all(any(alive(base, a, b) for b in B.universe) for a in A.universe)
                and (tier == 1 or all(any(alive(base, a, b) for a in A.universe)
                                      for b in B.universe)))

    changed = True
    while changed:
        changed = False
        for pos in sorted(surviving):
            bases = {pos[:i] + pos[i + 1:] for i in range(len(pos))}
            if len(pos) < k:
                bases.add(pos)
            if not all(good(base) for base in sorted(bases)):
                surviving.discard(pos)
                changed = True
    return surviving


# The ef games of the three tiers as separate memoised recursions that test
# every candidate position with the plain partial hom/iso checks: the
# library's one engine (`ef.EfGame`) must give the same verdicts and the same
# certificates.

def ef_game_recursion(A: Structure, B: Structure, k: int) -> tuple[bool, dict | None]:
    """Existential k-round game; the strategy table on a win."""

    @lru_cache(maxsize=None)
    def win(pairs: frozenset, rounds_left: int) -> bool:
        if rounds_left == 0:
            return True
        for a in A.universe:
            if not any(win(pairs | {(a, b)}, rounds_left - 1)
                       for b in B.universe
                       if is_partial_homomorphism(pairs | {(a, b)}, A, B)):
                return False
        return True

    if not win(frozenset(), k):
        return False, None
    table = {}

    def extend(s: tuple, pairs: frozenset) -> None:
        # one answer per pair set: the one that wins the k - |pairs| rounds
        # left where it is first reached, after |pairs| fresh moves
        if len(s) == k:
            return
        for a in A.universe:
            for b in B.universe:
                nxt = pairs | {(a, b)}
                if is_partial_homomorphism(nxt, A, B) and win(nxt, k - len(pairs) - 1):
                    table[s + (a,)] = b
                    extend(s + (a,), nxt)
                    break

    extend((), frozenset())
    return True, table


def _capped(A: Structure, B: Structure, pairs: frozenset, rounds: int) -> tuple:
    """A position as certificates record it: the rounds left past the fresh
    elements of the larger side cannot change the position, and are cut.
    The recursions' own `win` is not capped, so the answers they record at a
    capped position check that the cut changes nothing."""
    return pairs, min(rounds, max(len(A.universe), len(B.universe)) - len(pairs))


def ef_back_and_forth_recursion(A: Structure, B: Structure, k: int
                                ) -> tuple[bool, dict | None]:
    """Back-and-forth k-round game; the certificate on a win."""

    @lru_cache(maxsize=None)
    def win(pairs: frozenset, rounds: int) -> bool:
        if rounds == 0:
            return True
        for a in A.universe:
            if not any(win(pairs | {(a, b)}, rounds - 1) for b in B.universe
                       if is_partial_isomorphism(pairs | {(a, b)}, A, B)):
                return False
        for b in B.universe:
            if not any(win(pairs | {(a, b)}, rounds - 1) for a in A.universe
                       if is_partial_isomorphism(pairs | {(a, b)}, A, B)):
                return False
        return True

    if not win(frozenset(), k):
        return False, None
    entries = []
    seen = set()
    queue = [_capped(A, B, frozenset(), k)]
    while queue:
        pairs, rounds = queue.pop(0)
        if pairs in seen or rounds == 0:
            continue
        seen.add(pairs)  # first reached with the most rounds left
        forth, back = [], []
        fwd = dict(pairs)  # answers are recorded on unpebbled elements only
        bwd = {b: a for a, b in pairs}
        for a in A.universe:
            if a in fwd:
                continue
            b = next(x for x in B.universe
                     if is_partial_isomorphism(pairs | {(a, x)}, A, B)
                     and win(pairs | {(a, x)}, rounds - 1))
            forth.append([a, b])
            queue.append(_capped(A, B, pairs | {(a, b)}, rounds - 1))
        for b in B.universe:
            if b in bwd:
                continue
            a = next(x for x in A.universe
                     if is_partial_isomorphism(pairs | {(x, b)}, A, B)
                     and win(pairs | {(x, b)}, rounds - 1))
            back.append([b, a])
            queue.append(_capped(A, B, pairs | {(a, b)}, rounds - 1))
        entries.append({"pairs": sorted(list(p) for p in pairs),
                        "rounds_left": rounds, "forth": forth, "back": back})
    return True, {"comonad": "ef", "game": "back-and-forth", "k": k, "shape": "positions",
                  "positions": entries}


def ef_bijection_recursion(A: Structure, B: Structure, k: int) -> tuple[bool, dict | None]:
    """Bijection k-round game; the certificate on a win."""
    if len(A.universe) != len(B.universe):
        return False, None

    @lru_cache(maxsize=None)
    def matching_at(pairs: frozenset, rounds: int):
        psi = perfect_matching(A.universe, B.universe,
                               lambda a, b: is_partial_isomorphism(pairs | {(a, b)}, A, B)
                               and win(pairs | {(a, b)}, rounds - 1))
        return tuple(sorted(psi.items())) if psi is not None else None

    @lru_cache(maxsize=None)
    def win(pairs: frozenset, rounds: int) -> bool:
        return rounds == 0 or matching_at(pairs, rounds) is not None

    if not win(frozenset(), k):
        return False, None
    entries = []
    seen = set()
    queue = [_capped(A, B, frozenset(), k)]
    while queue:
        pairs, rounds = queue.pop(0)
        if pairs in seen or rounds == 0:
            continue
        seen.add(pairs)  # first reached with the most rounds left
        fwd = dict(pairs)  # answers are recorded on unpebbled elements only
        psi = {a: b for a, b in matching_at(pairs, rounds) if a not in fwd}
        entries.append({"pairs": sorted(list(p) for p in pairs),
                        "rounds_left": rounds,
                        "bijection": sorted([a, b] for a, b in psi.items())})
        for a, b in psi.items():
            queue.append(_capped(A, B, pairs | {(a, b)}, rounds - 1))
    return True, {"comonad": "ef", "game": "bijection", "k": k, "shape": "positions",
                  "positions": entries}


def extensions_reference(occ: list[tuple[str, tuple[str, ...]]], m: dict, x: str,
                         ys: tuple[str, ...], target: dict) -> tuple[str, ...]:
    """The ys y for which m extended by x -> y maps into target every tuple of
    occ (a list of (relation name, tuple) through x, which m leaves
    unmapped) whose elements other than x m already maps: one tuple built
    and looked up per candidate and tuple."""
    closed = [(target[name], t) for name, t in occ if all(z == x or z in m for z in t)]
    return tuple(y for y in ys
                 if all(tuple([y if z == x else m[z] for z in t]) in rel for rel, t in closed))


def pair_types_reference(A: Structure) -> dict:
    """Every ordered pair (u, v) of A's elements -> its facts, read from the
    relation tuples one membership test at a time: (name, 0) if (u, v) is in
    name, (name, 1) if (v, u) is, and on (u, u) (name,) for each unary name
    holding at u."""
    out = {}
    for u in A.universe:
        for v in A.universe:
            facts = set()
            for name, tups in A.relations.items():
                if A.sig.arity(name) == 1:
                    facts |= {(name,)} if u == v and (u,) in tups else set()
                else:
                    facts |= {(name, 0)} if (u, v) in tups else set()
                    facts |= {(name, 1)} if (v, u) in tups else set()
            out[u, v] = frozenset(facts)
    return out


def atomic_colours_by_occurrences(A: Structure, B: Structure, k: int) -> list[int]:
    """Node -> atomic colour, with `refine.Types`'s nodes and colour ids,
    typing t·a as refinement did before pair types: t's colour and the set
    of (name, positions) of the tuples through a that t·a covers.  Built for
    every length, where `Types` may stop at a length whose atomic types
    differ."""
    atoms: dict = {}
    col = [0, 0]
    levels = [[((), 0)], [((), 1)]]
    for n in range(max(min(k, len(S.universe)) for S in (A, B))):
        for side, S in enumerate((A, B)):
            occ, nxt = occurrences(S), []
            for t, node in levels[side]:
                for a in S.universe:
                    if a in t:
                        continue
                    pos = {x: i for i, x in enumerate(t + (a,))}
                    part = frozenset((name, tuple(pos[z] for z in u)) for name, u in occ[a]
                                     if all(z in pos for z in u))
                    col.append(atoms.setdefault((col[node], part), len(atoms) + 1))
                    if n + 1 < k:
                        nxt.append((t + (a,), len(col) - 1))
            levels[side] = nxt
    return col


# Options of a pair set: for each element of A in universe order, the
# responses that keep the position winning, in B's universe order.
Options = tuple[tuple[str, ...], ...]


# The game engines that decided ef and pebble tiers 2 and 3 before the
# type refinement (`refine.Types`): one memoised recursion over pair sets
# for ef and one counter-based greatest fixpoint over pebble positions for
# all three tiers.  The library's engines must give the same verdicts and
# the same certificates.

class EfGameReference:
    """The ef game from A to B at one tier, solved by memoised recursion on
    (pair set, rounds left).

    A position is the set of (Spoiler move, Duplicator response) pairs played
    so far; Duplicator survives while it is a partial homomorphism (tier 1)
    or a partial isomorphism (tiers 2 and 3).  The tiers differ only in
    Duplicator's answer: at tier 1 every element of A needs a winning
    response, at tier 2 also every element of B, and at tier 3 the winning
    responses must contain a bijection A -> B.

    One memo, local to the game, maps a pair set to its options (for each
    element a of A in universe order, the responses b in B's universe order
    that keep the position winning) and to whether Duplicator wins with each
    number of rounds left.  A child's options are its parent's filtered
    through the tuples that contain the new pair: both predicates are
    hereditary, and every other tuple was checked at the parent.  With one
    round left any option wins, so positions with none left are never built.
    """

    def __init__(self, A: Structure, B: Structure, tier: int):
        self.A, self.B, self.tier = A, B, tier
        self.occ_a, self.occ_b = occurrences(A), occurrences(B)
        root: frozenset = frozenset()
        self.memo: dict[frozenset, tuple[Options, dict[int, bool]]] = {
            root: (self._options(root, (B.universe,) * len(A.universe), None), {})}

    def _options(self, pairs: frozenset, parent: Options,
                 new: Optional[tuple[str, str]]) -> Options:
        """Options at pairs, which is a position with options parent plus the
        pair new (at the root new is None and every response is a candidate)."""
        A, B, iso = self.A, self.B, self.tier > 1
        fwd = dict(pairs)
        a0, b0 = new or (None, None)

        def through(occ: list, y: Optional[str]) -> list:
            return occ if y is None else [o for o in occ if y in o[1]]

        options = {}
        for a, bs in zip(A.universe, parent):
            if a == a0:
                bs = (b0,)
            elif a not in fwd:
                if iso and b0 in bs:
                    bs = tuple(b for b in bs if b != b0)
                bs = extensions_reference(through(self.occ_a[a], a0), fwd, a, bs, B.relations)
            options[a] = bs
        if iso:  # the same backwards, through the tuples of B
            bwd = {b: a for a, b in pairs}
            wanted: dict[str, list[str]] = defaultdict(list)
            for a, bs in options.items():
                if a not in fwd:
                    for b in bs:
                        wanted[b].append(a)
            kept = {b: extensions_reference(through(self.occ_b[b], b0), bwd, b, tuple(as_),
                                           A.relations)
                    for b, as_ in wanted.items()}
            options = {a: bs if a in fwd else tuple(b for b in bs if a in kept[b])
                       for a, bs in options.items()}
        return tuple(options.values())

    def child(self, pairs: frozenset, a: str, b: str) -> frozenset:
        """pairs plus (a, b), an option at pairs, with its options memoised."""
        nxt = pairs | {(a, b)}
        if nxt not in self.memo:
            self.memo[nxt] = (self._options(nxt, self.memo[pairs][0], (a, b)), {})
        return nxt

    def win(self, pairs: frozenset, rounds: int) -> bool:
        """Whether Duplicator survives `rounds` more rounds from pairs."""
        if rounds == 0:
            return True
        wins = self.memo[pairs][1]
        if rounds not in wins:
            # Rounds beyond the unpebbled elements change nothing: a move on a
            # pebbled element is answered by its partner and leaves the
            # position as it was, and every other move Duplicator survives
            # pebbles a new element (on both sides at tiers 2 and 3).  So the
            # recursion is never deeper than |A| + |B|.
            fresh = (len(self.A.universe) - len(pairs)
                     + len(self.B.universe) - len({b for _, b in pairs}))
            wins[rounds] = (self.win(pairs, fresh) if rounds > fresh
                            else self.answers(pairs, rounds) is not None)
        return wins[rounds]

    def keeps_win(self, pairs: frozenset, rounds: int) -> Callable[[str, str], bool]:
        """Which pairs (a, b) at pairs, with rounds left, are options that
        leave Duplicator a win."""
        options = dict(zip(self.A.universe, self.memo[pairs][0]))
        return lambda a, b: b in options[a] and (
            rounds == 1 or self.win(self.child(pairs, a, b), rounds - 1))

    def answers(self, pairs: frozenset, rounds: int) -> Optional[list[tuple[str, str]]]:
        """Duplicator's answers (`strategy.answers`) at pairs with rounds
        left, or None if Spoiler wins there."""
        return answers(self.tier, self.A.universe, self.B.universe, self.keeps_win(pairs, rounds))


def ef_game_reference(A: Structure, B: Structure, k: int, tier: int,
                      build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
    """Decide the k-round ef game of a tier (`EfGameReference`)."""
    require_same_signature(A, B)
    if k < 1:
        raise ValueError("k must be >= 1")
    if tier == 3 and len(A.universe) != len(B.universe):
        return False, None
    game = EfGameReference(A, B, tier)
    exists = game.win(frozenset(), k)
    if not exists or not build_certificate:
        return exists, None
    return True, certificate(EfRules(A, B, k, tier), tier, lambda pos, _, xs, ys: answers(
        tier, xs, ys, game.keeps_win(*pos)))


# The pebble games over multisets of pairs: two pebbles may mark one pair,
# and a move onto a pebbled element adds its pair again.  On the positions
# that repeat no pair, the library's positions (sets of pairs) must win
# exactly where these do.

def _canon(pairs) -> Position:
    return tuple(sorted(pairs))


def _parents(q: Position):
    """(q with one copy of pair removed, pair) for each distinct pair of q."""
    for i, pair in enumerate(q):
        if i == 0 or q[i - 1] != pair:
            yield q[:i] + q[i + 1:], pair


def _pebble_arena(A: Structure, B: Structure, k: int, iso: bool) -> list[Position]:
    """Every position of at most k pairs that is a partial homomorphism (or,
    with iso, a partial isomorphism), smallest first.

    Both predicates are hereditary, so each position is its largest pair added
    to a smaller position; only tuples through the new pair are checked.
    """
    occ_a, occ_b = occurrences(A), occurrences(B)
    pairs = sorted((a, b) for a in A.universe for b in B.universe)
    first = {pair: i for i, pair in enumerate(pairs)}
    arena: list[Position] = [()]
    level: list[Position] = [()]
    for _ in range(k):
        nxt = []
        for pos in level:
            fwd = dict(pos)
            bwd = {b: a for a, b in pos}
            for a, group in groupby(pairs[first[pos[-1]] if pos else 0:], key=itemgetter(0)):
                bs = tuple(b for _, b in group)
                if a in fwd:
                    bs = (fwd[a],) if fwd[a] in bs else ()
                else:
                    if iso:
                        bs = tuple(b for b in bs if b not in bwd)
                    bs = extensions_reference(occ_a[a], fwd, a, bs, B.relations)
                    if iso:
                        bs = tuple(b for b in bs
                                   if extensions_reference(occ_b[b], bwd, b, (a,), A.relations))
                nxt.extend(pos + ((a, b),) for b in bs)
        arena.extend(nxt)
        level = nxt
    return arena


def pebble_fixpoint_reference(A: Structure, B: Structure, k: int, tier: int) -> set[Position]:
    """Winning positions of the k-pebble game of a tier: the greatest fixpoint.

    Tier 1 is the existential game over partial homomorphisms; tier 2 the
    back-and-forth and tier 3 the bijection game, over partial isomorphisms.
    A position lives iff each of its bases is good: every Spoiler move from
    the base (an element of A, at tier 2 also of B) keeps a live response, or
    at tier 3 the live responses contain a bijection A -> B.  Goodness depends
    on the base alone, so each base keeps a count of live responses per move
    (a matching at tier 3); a dying position decrements its parents' counts
    and a base whose count hits zero kills every position built on it.
    """
    arena = _pebble_arena(A, B, k, iso=tier > 1)
    live = set(arena)
    if tier < 3:
        def answered(base: Position, x: str, y: str) -> list:
            """The Spoiler moves from base that the response (x, y) answers."""
            return [(base, 0, x), (base, 1, y)][:tier]

        count = Counter(mv for q in arena for base, (x, y) in _parents(q)
                        for mv in answered(base, x, y))

        def is_bad(base: Position) -> bool:
            return (any(count[base, 0, a] == 0 for a in A.universe)
                    or tier == 2 and any(count[base, 1, b] == 0 for b in B.universe))

        def lose(base: Position, x: str, y: str) -> bool:
            moves = answered(base, x, y)
            count.subtract(moves)
            return any(count[mv] == 0 for mv in moves)
    else:
        responses: dict[Position, set] = defaultdict(set)
        for q in arena:
            for base, pair in _parents(q):
                responses[base].add(pair)
        matching: dict[Position, Optional[dict]] = {}

        def is_bad(base: Position) -> bool:  # (re)computes the base's matching
            live_pairs = responses[base]
            matching[base] = perfect_matching(A.universe, B.universe,
                                              lambda a, b: (a, b) in live_pairs)
            return matching[base] is None

        def lose(base: Position, x: str, y: str) -> bool:
            responses[base].discard((x, y))
            return matching[base].get(x) == y and is_bad(base)

    queue = [base for base in arena if len(base) < k and is_bad(base)]
    bad = set(queue)
    pairs = [(a, b) for a in A.universe for b in B.universe]
    while queue:
        base = queue.pop()
        for q in [base] + [_canon(base + (pair,)) for pair in pairs]:
            if q not in live:
                continue
            live.remove(q)
            for parent, (x, y) in _parents(q):
                if parent not in bad and lose(parent, x, y):
                    bad.add(parent)
                    queue.append(parent)
    return live


def pebble_game_reference(A: Structure, B: Structure, k: int, tier: int,
                          build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
    """Decide the k-pebble game of a tier (`pebble_fixpoint_reference`); on a win the
    certificate answers each move with the first surviving response."""
    require_same_signature(A, B)
    if k < 1:
        raise ValueError("k must be >= 1")
    if tier == 3 and len(A.universe) != len(B.universe):
        return False, None
    surviving = pebble_fixpoint_reference(A, B, k, tier)
    exists = () in surviving
    if not exists or not build_certificate:
        return exists, None
    return True, certificate(PebbleRules(A, B, k, tier), tier, lambda base, _, xs, ys: answers(
        tier, xs, ys, lambda a, b: _canon(base + ((a, b),)) in surviving))



def pebble_counter_fixpoint(A: Structure, B: Structure, k: int, cap: int = CAP) -> set[Position]:
    """Winning positions of the existential k-pebble game, by the counter
    scheme (Liu & Smolka, ICALP 1998) over every stored position: the
    library's earlier tier-1 engine, kept as the reference for the one that
    stores bases only.

    Positions are masks over A×B (pair i in sorted order is bit i), built
    smallest first by a pair on a row after the highest pebbled one, filtered
    by `extensions`; `CapExceeded` past `cap` positions.  Each base keeps a
    count of live responses per move, keyed base * |A| + row of the move; a
    dying position decrements its parents' counts and a base whose count
    hits zero kills every position built on it.
    """
    pairs = sorted((a, b) for a in A.universe for b in B.universe)
    bits = {pair: 1 << i for i, pair in enumerate(pairs)}
    order = sorted(range(len(B.universe)), key=B.universe.__getitem__)
    rows = [(a, [(1 << i, bits[a, B.universe[i]]) for i in order]) for a in sorted(A.universe)]
    after = [0] + [x + 1 for x, (_, targets) in enumerate(rows) for _ in targets]
    arena, level = [0], [0]
    for _ in range(k):
        nxt = []
        for pos in level:
            fwd, rest = {}, pos
            while rest:
                low = rest & -rest
                rest ^= low
                a, b = pairs[low.bit_length() - 1]
                fwd[a] = b
            for a, targets in rows[after[pos.bit_length()]:]:
                mask = extensions(A, B, fwd, a)
                nxt.extend(pos | bit for b, bit in targets if mask & b)
            if len(arena) + len(nxt) > cap:
                raise CapExceeded(len(arena) + len(nxt), cap, "positions or more")
        arena.extend(nxt)
        level = nxt
    row = {bit: x for x, (_, targets) in enumerate(rows) for _, bit in targets}
    row_mask = [sum(bit for _, bit in targets) for _, targets in rows]
    n = len(rows)
    count: defaultdict[int, int] = defaultdict(int)
    for q in arena:
        rest = q
        while rest:
            low = rest & -rest
            rest ^= low
            count[(q ^ low) * n + row[low]] += 1
    queue = [base for base in arena if base.bit_count() < k and any(
        not base & row_mask[x] and not count.get(base * n + x) for x in range(n))]
    bad = set(queue)
    live = set(arena)
    while queue:
        base = queue.pop()
        for q in [base, *(base | bit for bit in bits.values())]:
            if q not in live:
                continue
            live.remove(q)
            rest = q
            while rest:
                low = rest & -rest
                rest ^= low
                parent = q ^ low
                if parent not in bad:
                    key = parent * n + row[low]
                    count[key] -= 1
                    if not count[key]:
                        bad.add(parent)
                        queue.append(parent)
    return {tuple(pair for pair, bit in bits.items() if q & bit) for q in live}


# The certificate walk by its first protocol: every answer is stepped to the
# position after it, and the positions Duplicator answers from next are read
# off that position (pebble: all its bases, the one just answered from too).
# `strategy.certificate`, which asks the rules' `after` for the positions
# alone, must fill the same certificate, entry for entry.

def pebble_bases(pos: Position, k: int) -> list[Position]:
    """What Spoiler may keep before placing a pebble: the position with one
    pebble lifted, or the whole position while fewer than k pebbles are down."""
    out = {pos[:i] + pos[i + 1:] for i in range(len(pos))}
    if len(pos) < k:
        out.add(pos)
    return sorted(out)


def stepped(rules, pos, x: str, y: str):
    """The position after (x, y) is played at pos."""
    if rules.comonad == "ef":
        return pos[0] | {(x, y)}, pos[1] - 1
    if rules.comonad == "modal":
        return x, y, pos[2] - 1
    return tuple(sorted((*pos, (x, y))))


def answering(rules, state) -> list:
    """The positions Duplicator answers from at state: its bases (pebble),
    else state itself while it has rounds left."""
    if rules.comonad == "pebble":
        return pebble_bases(state, rules.k)
    return [state] if rules.cover(state)[1] > 0 else []


def certificate_by_steps(rules, tier: int, answer: Callable) -> dict:
    """`strategy.certificate` by stepping every answer, then `answering`."""
    entries = []
    order = answering(rules, rules.start())
    most = dict(map(rules.cover, order))
    for pos in order:
        entry = {**rules.to_json(pos), **{name: [] for name in ANSWERS[tier]}}
        entries.append(entry)
        states = []
        for group, xs, ys in rules.challenges(pos):
            pairs = answer(pos, group, xs, ys)
            entry[ANSWERS[tier][0]] += [[*group, x, y] for x, y in pairs[:len(xs)]]
            if tier == 2:
                entry["back"] += [[*group, y, x] for x, y in pairs[len(xs):]]
            states += [stepped(rules, pos, x, y) for x, y in pairs]
        for state in states:
            for nxt in answering(rules, state):
                key, left = rules.cover(nxt)
                if left > most.get(key, -1):
                    most[key] = left
                    order.append(nxt)
    return {"comonad": rules.comonad, "game": GAMES[tier - 1], "k": rules.k,
            "shape": SHAPE, "positions": entries}


# Winning-position predicates of the three comonads' games, on synchronized
# plays (the library's solvers work on the positions these reduce to).

def ef_winning_position(s, t, A, B) -> bool:
    """Same length and the induced move pairs form a partial isomorphism."""
    if len(s) != len(t):
        return False
    return is_partial_isomorphism(zip(s, t), A, B)


def pebble_winning_position(s, t, A, B) -> bool:
    """Same pebble indices and the current placements form a partial isomorphism."""
    if len(s) != len(t) or [p for p, _ in s] != [p for p, _ in t]:
        return False
    placed = {}
    for (p, a), (_, b) in zip(s, t):
        placed[p] = (a, b)
    return is_partial_isomorphism(placed.values(), A, B)


def modal_winning_position(s, t, P, Q) -> bool:
    """Labels agree and proposition profiles match at every step."""
    if len(s) != len(t) or s[1::2] != t[1::2]:
        return False
    KA, KB = kripke_view(P.base), kripke_view(Q.base)
    return all(KA.profile(a) == KB.profile(b) for a, b in zip(s[::2], t[::2]))


def build_theta(A: Structure, B: Structure, k: int,
                max_functions: int = 10 ** 6):
    """Materialize the strategy-set operator for the back-and-forth game.

    Enumerates every function from plays over A to elements of B whose
    coextension stays inside the winning set (and symmetrically), and returns
    (theta, S_ab, S_ba) where theta maps a set of forward strategy functions
    to the set of those locally inverted by some backward one, twice over.
    """
    require_same_signature(A, B)
    plays_a = ef_plays(A, k)
    plays_b = ef_plays(B, k)
    if len(B.universe) ** len(plays_a) > max_functions:
        raise BoundExceeded(
            f"{len(B.universe)}^{len(plays_a)} strategy candidates exceed {max_functions}")
    if len(A.universe) ** len(plays_b) > max_functions:
        raise BoundExceeded(
            f"{len(A.universe)}^{len(plays_b)} strategy candidates exceed {max_functions}")

    def strategy_set(plays, src, dst):
        out = []
        for values in product(dst.universe, repeat=len(plays)):
            f = dict(zip(plays, values))
            star = {s: coextend_play(f.__getitem__, s) for s in plays}
            if all(is_partial_isomorphism(frozenset(zip(s, star[s])), src, dst) for s in plays):
                out.append(star)
        return out

    S_ab = strategy_set(plays_a, A, B)
    S_ba = strategy_set(plays_b, B, A)

    # ok_back[g][t] = indices of forward strategies with f*(g*(t)) == t
    ok_back = [[frozenset(i for i, f in enumerate(S_ab) if f[g[t]] == t)
                for t in plays_b] for g in S_ba]
    ok_fwd = [[frozenset(j for j, g in enumerate(S_ba) if g[f[s]] == s)
               for s in plays_a] for f in S_ab]

    def gamma(F: frozenset) -> frozenset:
        return frozenset(j for j in range(len(S_ba))
                         if all(ok_back[j][t] & F for t in range(len(plays_b))))

    def delta(G: frozenset) -> frozenset:
        return frozenset(i for i in range(len(S_ab))
                         if all(ok_fwd[i][s] & G for s in range(len(plays_a))))

    def theta(F: frozenset) -> frozenset:
        return delta(gamma(F))

    return theta, S_ab, S_ba


def theta_fixpoint_oracle(A: Structure, B: Structure, k: int,
                          max_functions: int = 10 ** 6) -> bool:
    """Decide the back-and-forth equivalence by the descending fixpoint.

    Starting from the full strategy set, iterate the operator until stable;
    the greatest fixpoint is non-empty iff the equivalence holds.  Usable only
    on tiny instances (the strategy sets are enumerated outright).
    """
    theta, S_ab, _ = build_theta(A, B, k, max_functions)
    F = frozenset(range(len(S_ab)))
    while True:
        nxt = theta(F)
        if nxt == F:
            return bool(F)
        F = nxt


# The exact tree-depth and tree-width solvers as memoised recursions over
# frozensets of element names, with a set-based search for every fill-in: the
# library's bitmask solvers (`decomposition.tree_depth`/`tree_width`) must give
# the same values and the same witnesses.

def _set_components(vertices: frozenset[str],
                    adj: dict[str, set[str]]) -> list[frozenset[str]]:
    out = []
    left = set(vertices)
    while left:
        start = min(left)
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v] & left:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        out.append(frozenset(comp))
        left -= comp
    return sorted(out, key=min)


def tree_depth_reference(A: Structure) -> tuple[int, ForestCover]:
    """Exact tree-depth of the Gaifman graph, with a minimum-height forest cover.

    Connected pieces recurse on vertex deletion (depth = 1 + best deletion);
    a disconnected piece is the maximum over its components.
    """
    if len(A.universe) > TREE_DEPTH_BOUND:
        raise BoundExceeded(f"tree-depth solver handles at most {TREE_DEPTH_BOUND} elements")
    G = gaifman_graph(A)
    adj = {v: set(G.neighbors(v)) for v in G.vertices}
    order = {v: i for i, v in enumerate(A.universe)}

    @lru_cache(maxsize=None)
    def solve(vertices: frozenset) -> tuple[int, tuple]:
        """Returns (depth, parent-items) for the induced subgraph."""
        if not vertices:
            return 0, ()
        comps = _set_components(vertices, adj)
        if len(comps) > 1:
            depth = 0
            parent: dict[str, Optional[str]] = {}
            for comp in comps:
                d, items = solve(comp)
                depth = max(depth, d)
                parent.update(dict(items))
            return depth, tuple(sorted(parent.items()))
        comp = comps[0]
        if len(comp) == 1:
            (v,) = comp
            return 1, ((v, None),)
        best = None
        for v in sorted(comp, key=order.__getitem__):
            d, items = solve(comp - {v})
            if best is None or d + 1 < best[0]:
                sub = dict(items)
                parent = {v: None}
                for w, p in sub.items():
                    parent[w] = v if p is None else p
                best = (d + 1, tuple(sorted(parent.items())))
        return best

    depth, items = solve(frozenset(A.universe))
    return depth, ForestCover(dict(items))


def _set_fill_neighbors(v: str, eliminated: frozenset[str],
                        adj: dict[str, set[str]]) -> frozenset[str]:
    """Vertices outside `eliminated` adjacent to v through eliminated ones."""
    seen = {v}
    stack = [v]
    out = set()
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w in seen:
                continue
            seen.add(w)
            if w in eliminated:
                stack.append(w)
            elif w != v:
                out.add(w)
    return frozenset(out)


def tree_width_prefixes(A: Structure) -> Callable[[frozenset], int]:
    """The reference's per-prefix table, as a memoised function: tw[prefix],
    the least max fill-degree over orders eliminating exactly `prefix` (a
    frozenset of element names) first; tw[empty] = -1."""
    G = gaifman_graph(A)
    adj = {v: set(G.neighbors(v)) for v in G.vertices}
    order = {v: i for i, v in enumerate(A.universe)}

    @lru_cache(maxsize=None)
    def best_width(prefix: frozenset) -> int:
        if not prefix:
            return -1
        return min(max(best_width(prefix - {v}),
                       len(_set_fill_neighbors(v, prefix - {v}, adj)))
                   for v in sorted(prefix, key=order.__getitem__))

    return best_width


def tree_width_reference(A: Structure) -> tuple[int, TreeDecomposition]:
    """Exact tree-width via dynamic programming over elimination prefixes.

    The width of an elimination order is the largest fill-in degree at
    elimination time; minimizing over orders equals the tree-width.  The
    witness decomposition is rebuilt from an optimal order.
    """
    if len(A.universe) > TREE_WIDTH_BOUND:
        raise BoundExceeded(f"tree-width solver handles at most {TREE_WIDTH_BOUND} elements")
    G = gaifman_graph(A)
    adj = {v: set(G.neighbors(v)) for v in G.vertices}
    verts = list(A.universe)
    order = {v: i for i, v in enumerate(verts)}
    best_width = tree_width_prefixes(A)
    width = best_width(frozenset(verts))

    # reconstruct an optimal elimination order, last eliminated first
    elim: list[str] = []
    prefix = frozenset(verts)
    while prefix:
        v = next(v for v in sorted(prefix, key=order.__getitem__)
                 if max(best_width(prefix - {v}),
                        len(_set_fill_neighbors(v, prefix - {v}, adj))) == best_width(prefix))
        elim.append(v)
        prefix = prefix - {v}
    elim.reverse()

    decomposition = _set_decomposition_from_order(A, G, adj, elim)
    return width, decomposition


def _set_decomposition_from_order(A: Structure, G: Graph, adj: dict[str, set[str]],
                                  elim: list[str]) -> TreeDecomposition:
    """Standard construction: bag of v = v plus its fill neighbors; each bag
    hangs under a bag containing those neighbors.  Components are joined under
    an empty virtual root only when the graph is disconnected."""
    comps = _set_components(frozenset(A.universe), adj)
    eliminated: set[str] = set()
    fill: dict[str, frozenset[str]] = {}
    for v in elim:
        fill[v] = _set_fill_neighbors(v, frozenset(eliminated), adj)
        eliminated.add(v)

    nodes: list[str] = []
    parent: dict[str, Optional[str]] = {}
    bags: dict[str, frozenset[str]] = {}
    comp_roots: list[str] = []
    for comp in comps:
        members = [v for v in elim if v in comp]
        # last eliminated vertex of the component roots its subtree
        root = members[-1]
        local = [root]
        parent[root] = None
        bags[root] = fill[root] | {root}
        for v in reversed(members[:-1]):
            # at v's elimination its fill neighbors form a clique among the
            # later-eliminated vertices, so some existing bag contains them
            host = next(n for n in local if fill[v] <= bags[n])
            local.append(v)
            parent[v] = host
            bags[v] = fill[v] | {v}
        nodes.extend(local)
        comp_roots.append(root)
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


def tree_width_table(A: Structure) -> tuple[int, TreeDecomposition]:
    """Exact tree-width by filling the whole subset table, on the library's
    bitmask graph: tw[S] for every one of the 2^n masks, in increasing order.

    tw[S], for orders eliminating the mask S first, is the min over v in S of
    max(tw[S - v], |fill-in of v|), the fill-in being shared by v's component
    of S.  The order is rebuilt last vertex first, each the first in universe
    order that keeps the width; `decomposition.tree_width` must give the same
    value and the same decomposition from a bounded search.
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

    elim: list[int] = []
    S = (1 << n) - 1
    while S:
        v = next(v for v in _bits(S)
                 if max(tw[S ^ v], G.fill_neighbors(v, S ^ v).bit_count()) == tw[S])
        elim.append(v)
        S ^= v
    elim.reverse()
    return tw[-1], _decomposition_from_order(A, G, elim)
