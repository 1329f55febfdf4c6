"""The pebbling comonad: bounded truncations and the k-pebble games.

Plays are finite non-empty sequences of moves (pebble index, element) of
arbitrary length, so the full play structure is infinite and is never built.
Decisions run over pebble positions: what matters about a play is the current
placement of the pebbles, and all three game tiers are solved as greatest
fixpoints over those positions by one engine, `pebble_fixpoint`.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from itertools import groupby, product
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .matching import perfect_matching
from .strategy import PairRules, certificate
from .structures import (CapExceeded, Structure, extensions, occurrences,
                         require_same_signature, validate_structure)

Move = tuple[int, str]
PebblePlay = tuple[Move, ...]

DEFAULT_CAP = 200_000

# A position of the existential game is the multiset of (source, target)
# pebble pairs currently on the board, canonically sorted.  Pebble indices
# are interchangeable, so the multiset determines the game value.
Position = tuple[tuple[str, str], ...]


def pebble_play_id(s: PebblePlay) -> str:
    return json.dumps([[p, a] for p, a in s], separators=(",", ":"))


def pebble_play_of_id(pid: str) -> PebblePlay:
    return tuple((int(p), a) for p, a in json.loads(pid))


def pebble_relation_holds(rel: str, plays: Sequence[PebblePlay], A: Structure) -> bool:
    """The lifted relation on plays.

    Holds iff (1) the plays are pairwise prefix-comparable, (2) the pebble
    placed last in each play is not moved again within any longer play of the
    tuple, and (3) the relation holds of the last elements in A.
    """
    for s in plays:
        if not s:
            return False
    for s, t in product(plays, plays):
        if s[:len(t)] != t and t[:len(s)] != s:
            return False
    for s in plays:
        last_pebble = s[-1][0]
        for t in plays:
            if len(t) >= len(s) and t[:len(s)] == s:
                if any(p == last_pebble for p, _ in t[len(s):]):
                    return False
    return tuple(s[-1][1] for s in plays) in A.relations[rel]


def pebble_plays(A: Structure, k: int, n: int) -> list[PebblePlay]:
    """All plays of length 1..n over k pebbles, in breadth-first order."""
    moves = [(p, a) for p in range(1, k + 1) for a in A.universe]
    out: list[PebblePlay] = []
    frontier: list[PebblePlay] = [()]
    for _ in range(n):
        frontier = [s + (m,) for s in frontier for m in moves]
        out.extend(frontier)
    return out


def pebble_truncate(A: Structure, k: int, n: int, cap: int = DEFAULT_CAP) -> Structure:
    """Induced substructure of the play structure on plays of length <= n."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    size = sum((k * len(A.universe)) ** i for i in range(1, n + 1))
    if size > cap:
        raise CapExceeded(size, cap)
    plays = pebble_plays(A, k, n)
    interp: dict[str, list[list[str]]] = {}
    for name in A.sig.relations:
        ar = A.sig.arity(name)
        rows = []
        for s in plays:
            prefixes = [s[:i] for i in range(1, len(s) + 1)]
            for combo in product(prefixes, repeat=ar):
                if s not in combo:
                    continue
                if pebble_relation_holds(name, combo, A):
                    rows.append([pebble_play_id(c) for c in combo])
        interp[name] = rows
    return validate_structure(dict(A.sig.relations),
                              [pebble_play_id(s) for s in plays], interp)


def pebble_coextension_on_play(f: Callable[[PebblePlay], str], s: PebblePlay) -> PebblePlay:
    """Replay f on the prefixes of s, keeping the pebble indices."""
    out = []
    for i in range(1, len(s) + 1):
        try:
            b = f(s[:i])
        except KeyError:
            raise ValueError(f"strategy undefined on prefix {s[:i]}") from None
        out.append((s[i - 1][0], b))
    return tuple(out)


def _canon(pairs: Sequence[tuple[str, str]]) -> Position:
    return tuple(sorted(pairs))


def pebble_bases(pos: Position, k: int) -> list[Position]:
    """What Spoiler may keep before placing a pebble: the position with one
    pebble lifted, or the whole position while fewer than k pebbles are down."""
    out = {parent for parent, _ in _parents(pos)}
    if len(pos) < k:
        out.add(pos)
    return sorted(out)


def _parents(q: Position):
    """(q with one copy of pair removed, pair) for each distinct pair of q."""
    for i, pair in enumerate(q):
        if i == 0 or q[i - 1] != pair:
            yield q[:i] + q[i + 1:], pair


def _arena(A: Structure, B: Structure, k: int, iso: bool) -> list[Position]:
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
                    bs = extensions(occ_a[a], fwd, a, bs, B.relations)
                    if iso:
                        bs = tuple(b for b in bs
                                   if extensions(occ_b[b], bwd, b, (a,), A.relations))
                nxt.extend(pos + ((a, b),) for b in bs)
        arena.extend(nxt)
        level = nxt
    return arena


def pebble_fixpoint(A: Structure, B: Structure, k: int, tier: int) -> set[Position]:
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
    arena = _arena(A, B, k, iso=tier > 1)
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


def pebble_game(A: Structure, B: Structure, k: int, tier: int,
                build_certificate: bool) -> tuple[bool, Optional[dict]]:
    """Decide the k-pebble game of a tier (`pebble_fixpoint`); on a win the
    certificate answers each move with the first surviving response."""
    require_same_signature(A, B)
    if k < 1:
        raise ValueError("k must be >= 1")
    if tier == 3 and len(A.universe) != len(B.universe):
        return False, None
    surviving = pebble_fixpoint(A, B, k, tier)
    exists = () in surviving
    if not exists or not build_certificate:
        return exists, None
    return True, certificate(PebbleRules(A, B, k, tier), tier, lambda base, _: (
        lambda a, b: _canon(base + ((a, b),)) in surviving))


def pebble_game_exists(A: Structure, B: Structure, k: int,
                       build_strategy: bool = True) -> tuple[bool, Optional[dict]]:
    """Decide the existential k-pebble game from A to B.

    A position survives iff its pairs form a partial homomorphism and every
    Spoiler move (place or re-place a pebble on a source element) has a
    response keeping the successor alive.  There is no round bound; the set
    of winning positions is a greatest fixpoint (`pebble_fixpoint`, tier 1).
    """
    return pebble_game(A, B, k, 1, build_strategy)


class PebbleRules(PairRules):
    """The pebble games for `strategy`: Duplicator answers from a base (see
    `pebble_bases`), and the position after an answer is the base plus the
    new pair."""

    comonad = "pebble"

    def start(self) -> Position:
        return ()

    def fault(self, pos: Position) -> Optional[str]:
        return self.pairs_fault(pos)

    def answering(self, pos: Position) -> list[Position]:
        return pebble_bases(pos, self.k)

    def step(self, base: Position, group, x: str, y: str) -> Position:
        return _canon(base + ((x, y),))

    def to_json(self, base: Position) -> dict:
        return {"base": list(map(list, base))}
