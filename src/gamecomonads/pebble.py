"""The pebbling comonad: bounded truncations and the k-pebble games.

Plays are finite non-empty sequences of moves (pebble index, element) of
arbitrary length, so the full play structure is infinite and is never built.
Decisions run over pebble positions: what matters about a play is the set of
pairs its pebbles mark (see `Position`).  The existential game is a greatest
fixpoint over those positions (`pebble_fixpoint`); tiers 2 and 3 compare
k-variable types of tuples, computed on each structure alone (`refine.Types`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Callable, Optional, Sequence

from .comonad import (DEFAULT_CAP, Comonad, comparable, drop_move,
                      read_list)
from .refine import CAP, Types
from .strategy import PairRules, certificate
from .structures import CapExceeded, Structure, extensions, require_same_signature

Move = tuple[int, str]
PebblePlay = tuple[Move, ...]

# A position of the pebble games is the set of (source, target) pairs the
# pebbles mark, as a sorted tuple of distinct pairs.  Pebble indices are
# interchangeable and winning families are closed under restriction, so the
# set determines the game value (Kolaitis & Vardi, AAAI 2000): two pebbles on
# one pair count as one, and a move onto a pebbled element is answered by its
# partner, which leaves the set as it was.
Position = tuple[tuple[str, str], ...]


def pebble_counit(s: PebblePlay) -> str:
    return s[-1][1]


def _pebble_unrelated(name: str, plays: Sequence[PebblePlay]) -> Optional[str]:
    """The pebble condition on a tuple of the lifted relation: the plays are
    pairwise prefix-comparable, and the pebble placed last in each is not
    moved again within any longer play of the tuple."""
    if not comparable(plays):
        return "plays are not prefix-comparable"
    for s in plays:
        for t in plays:
            if len(t) > len(s) and any(p == s[-1][0] for p, _ in t[len(s):]):
                return f"pebble {s[-1][0]} is moved again after {s[-1][1]!r}"
    return None


def pebble_plays(A: Structure, k: int, n: int, cap: int = DEFAULT_CAP) -> list[PebblePlay]:
    """All plays of length 1..n over k pebbles, in breadth-first order;
    raises `CapExceeded` past cap plays."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    moves = [(p, a) for p in range(1, k + 1) for a in A.universe]
    size = sum(len(moves) ** i for i in range(1, n + 1))
    if size > cap:
        raise CapExceeded(size, cap, "plays")
    out: list[PebblePlay] = []
    frontier: list[PebblePlay] = [()]
    for _ in range(n):
        frontier = [s + (m,) for s in frontier for m in moves]
        out.extend(frontier)
    return out


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


def _pebble_malformed(A: Structure, k: int, s: PebblePlay) -> Optional[str]:
    if not s:
        return "is empty"
    if any(not 1 <= p <= k for p, _ in s):
        return f"uses a pebble outside 1..{k}"
    if any(x not in A.universe for _, x in s):
        return "leaves the universe"
    return None


def _move(m) -> Optional[Move]:
    ok = (isinstance(m, list) and len(m) == 2 and type(m[0]) is int
          and isinstance(m[1], str))
    return (m[0], m[1]) if ok else None


PEBBLE = Comonad(
    before=drop_move, counit=pebble_counit,
    coextend=pebble_coextension_on_play, unrelated=_pebble_unrelated,
    malformed=_pebble_malformed,
    read=lambda raw: read_list(raw, "[pebble, element] pairs", _move))


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
           rows: list[tuple[str, list[tuple[int, int]]]]) -> list[int]:
    """Every position of at most k pairs that is a partial homomorphism,
    smallest first, as masks over `pairs` (see `pebble_fixpoint` for `rows`).

    The predicate is hereditary, so each position is its highest pair added
    to a smaller position, on an element of A after those pebbled (the pairs
    of one element of A are consecutive bits), whose targets are filtered by
    `extensions`.  Raises `CapExceeded` past `CAP` positions.
    """
    # after[i]: the first row after that of bit i - 1, where the extensions
    # of a position with highest bit i - 1 start (after[0] = 0: the empty one)
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
    # a row per element a of A in order: (a, its targets b in order as
    # (bit of b in B's universe, bit of (a, b)))
    order = sorted(range(len(B.universe)), key=B.universe.__getitem__)
    rows = [(a, [(1 << i, bits[a, B.universe[i]]) for i in order]) for a in sorted(A.universe)]
    arena = _arena(A, B, k, list(bits), rows)
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
