"""The pebbling comonad: bounded truncations and the k-pebble games.

Plays are finite non-empty sequences of moves (pebble index, element) of
arbitrary length, so the full play structure is infinite and is never built.
Decisions run over pebble positions: what matters about a play is the set of
pairs its pebbles mark (see `Position`).  The existential game is a greatest
fixpoint over those positions (`pebble_fixpoint`); tiers 2 and 3 compare
k-variable types of tuples, computed on each structure alone (`refine.Types`).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import defaultdict
from itertools import product
from typing import Callable, Optional, Sequence

from .refine import CAP, Types
from .strategy import PairRules, certificate
from .structures import (CapExceeded, Structure, extensions, occurrences,
                         require_same_signature, validate_structure)

Move = tuple[int, str]
PebblePlay = tuple[Move, ...]

DEFAULT_CAP = 200_000

# A position of the pebble games is the set of (source, target) pairs the
# pebbles mark, as a sorted tuple of distinct pairs.  Pebble indices are
# interchangeable and winning families are closed under restriction, so the
# set determines the game value (Kolaitis & Vardi, AAAI 2000): two pebbles on
# one pair count as one, and a move onto a pebbled element is answered by its
# partner, which leaves the set as it was.
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


def pebble_bases(pos: Position, k: int) -> list[Position]:
    """What Spoiler may keep before placing a pebble: the position with one
    pebble lifted, or the whole position while fewer than k pebbles are down."""
    out = {pos[:i] + pos[i + 1:] for i in range(len(pos))}
    if len(pos) < k:
        out.add(pos)
    return sorted(out)


def pair_bits(A: Structure, B: Structure) -> dict[tuple[str, str], int]:
    """The encoding of the fixpoint's positions: pair i of A×B in sorted
    order is bit i, and a position is the int with the bits of its pairs."""
    pairs = sorted((a, b) for a in A.universe for b in B.universe)
    return {pair: 1 << i for i, pair in enumerate(pairs)}


def _arena(A: Structure, B: Structure, k: int, pairs: list[tuple[str, str]],
           rows: list[tuple[str, tuple[str, ...], dict[str, int]]]) -> list[int]:
    """Every position of at most k pairs that is a partial homomorphism,
    smallest first, as masks over `pairs` (see `pebble_fixpoint` for `rows`).

    The predicate is hereditary, so each position is its highest pair added
    to a smaller position, on an element of A after those pebbled (the pairs
    of one element of A are consecutive bits); only tuples through the new
    pair are checked.  Raises `CapExceeded` past `CAP` positions.
    """
    occ_a = occurrences(A)
    # after[i]: the first row after that of bit i - 1, where the extensions
    # of a position with highest bit i - 1 start (after[0] = 0: the empty one)
    after = [0] + [x + 1 for x, (_, bs, _) in enumerate(rows) for _ in bs]
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
            for a, bs, row_bits in rows[after[pos.bit_length()]:]:
                nxt.extend(pos | row_bits[b] for b in extensions(occ_a[a], fwd, a, bs, B.relations))
            if len(arena) + len(nxt) > CAP:
                raise CapExceeded(len(arena) + len(nxt), CAP, "positions or more")
        arena.extend(nxt)
        level = nxt
    return arena


def pebble_fixpoint(A: Structure, B: Structure, k: int) -> set[int]:
    """Winning positions of the existential k-pebble game, as masks
    (`pair_bits`): the greatest fixpoint over the partial homomorphisms of at
    most k pairs.

    A position lives iff each of its bases is good: every Spoiler move (an
    element of A) from the base keeps a live response.  A move onto a pebbled
    element is answered in place and leaves the base, which lives whenever a
    position built on it does (winning positions are closed under
    restriction), so only moves onto new elements are counted.  Goodness
    depends on the base alone, so each base keeps a count of live responses
    per move, keyed base * |A| + row of the move; a dying position decrements
    its parents' counts and a base whose count hits zero kills every position
    built on it.
    """
    bits = pair_bits(A, B)
    # a row per element of A in order: (element, its targets, target -> bit)
    rows = []
    for a in sorted(A.universe):
        row_bits = {b: bits[a, b] for b in sorted(B.universe)}
        rows.append((a, tuple(row_bits), row_bits))
    arena = _arena(A, B, k, list(bits), rows)
    row = {bit: x for x, (_, _, row_bits) in enumerate(rows) for bit in row_bits.values()}
    row_mask = [sum(row_bits.values()) for _, _, row_bits in rows]
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
    return live


def pebble_game(A: Structure, B: Structure, k: int, tier: int,
                build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
    """Decide the k-pebble game of a tier: tier 1 by `pebble_fixpoint`, tiers
    2 and 3 by k-variable (counting) types (`refine.Types`).  There is no
    round bound.  On a win the certificate answers each move with the first
    surviving response."""
    require_same_signature(A, B)
    if k < 1:
        raise ValueError("k must be >= 1")
    if tier == 3 and len(A.universe) != len(B.universe):
        return False, None
    if tier == 1:
        surviving = pebble_fixpoint(A, B, k)
        exists = 0 in surviving
        bits = pair_bits(A, B)

        def good(base, _):
            mask = sum(map(bits.__getitem__, base))
            return lambda a, b: (mask | bits[a, b]) in surviving
    else:
        types = Types(A, B, k, pebble=True, counting=tier == 3)
        exists = types.equal

        def good(base, _):
            return types.same_after(base)
    if not exists or not build_certificate:
        return exists, None
    return True, certificate(PebbleRules(A, B, k, tier), tier, good)


class PebbleRules(PairRules):
    """The pebble games for `strategy`: Duplicator answers from a base (see
    `pebble_bases`), and the position after an answer is the base plus the
    new pair."""

    comonad = "pebble"

    def __init__(self, A: Structure, B: Structure, k: int, tier: int):
        super().__init__(A, B, k, tier)
        self.bases: dict[Position, list[Position]] = {}

    def start(self) -> Position:
        return ()

    def fault(self, pos: Position, new=None) -> Optional[str]:
        return self.pairs_fault(pos, new)

    def answering(self, pos: Position) -> list[Position]:
        if pos not in self.bases:
            self.bases[pos] = pebble_bases(pos, self.k)
        return self.bases[pos]

    def step(self, base: Position, group, x: str, y: str) -> Position:
        i = bisect_left(base, (x, y))
        if i < len(base) and base[i] == (x, y):
            return base
        return base[:i] + ((x, y),) + base[i:]

    def to_json(self, base: Position) -> dict:
        return {"base": list(map(list, base))}
