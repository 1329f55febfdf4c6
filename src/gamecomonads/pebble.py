"""The pebbling comonad: bounded truncations and the k-pebble games.

Plays are finite non-empty sequences of moves (pebble index, element) of
arbitrary length, so the full play structure is infinite and is never built.
Decisions run over pebble positions: what matters about a play is the set of
pairs its pebbles mark (see `Position`).  The existential game is a greatest
fixpoint over those positions, stored on the positions of fewer than k pairs
alone (`pebble_fixpoint`); tiers 2 and 3 compare
k-variable types of tuples, computed on each structure alone (`refine.Types`).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .comonad import (DEFAULT_CAP, Comonad, comparable, drop_move,
                      read_list)
from .refine import CAP
from .strategy import PairRules
from .structures import CapExceeded, Structure, extensions, occurrences

Move = tuple[int, str]
PebblePlay = tuple[Move, ...]

# A position of the pebble games is the set of (source, target) pairs the
# pebbles mark, as a sorted tuple of distinct pairs.  Pebble indices are
# interchangeable and winning families are closed under restriction, so the
# set determines the game value (Kolaitis & Vardi, AAAI 2000): two pebbles on
# one pair count as one.
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


def pebble_fixpoint(A: Structure, B: Structure, k: int) -> dict[int, list[int]]:
    """The winning positions of the existential k-pebble game (the greatest
    fixpoint over the partial homomorphisms of at most k pairs), kept on the
    bases alone: each base (a position of fewer than k pairs) with its rows.

    Pair (A.universe[x], B.universe[i]) is bit x * |B| + i of a base.  Row x
    of a base is a mask over B's universe, read only for unpebbled x: bit i
    is set while the base plus that pair is a live position.  A position
    lives iff each of its bases is good: every Spoiler move (an unpebbled
    element of A, see `strategy.PairRules`) keeps a live response, i.e. no
    unpebbled row is 0.  So positions of k pairs are stored nowhere, and on
    return a base is good iff none of its rows is 0 (the rows of pebbled
    elements never are); the other rows of a bad base are not read.

    The rows start as `structures.extensions` gives them, a child's as its
    parent's ANDed with the extensions through the new pair (the predicate is
    hereditary, as in `ef.EfGame`).  Each base is built once, by a pair on a
    row after its highest; `CapExceeded` is raised as soon as the bases and
    the positions of k pairs they stand for pass `CAP`.  A dying base kills
    itself and each live position one pair above it (the set bits of its
    rows), and each death clears one bit in the rows of the dying position's
    other parents; a base with a row cleared to 0 dies in turn.  Clearing a
    bit twice does nothing, so no counts are kept.
    """
    n, width = len(A.universe), len(B.universe)
    occ = occurrences(A)
    near = [[y for y, b in enumerate(A.universe) if b != a and (a, b) in occ] for a in A.universe]
    rows = {0: [extensions(A, B, {}, a) for a in A.universe]}
    built = 0

    def count(size: int, mine: list[int], after: int) -> None:
        """Count a base, and at k - 1 pairs those of k on its rows from after."""
        nonlocal built
        built += 1 + (sum(m.bit_count() for m in mine[after:]) if size == k - 1 else 0)
        if built > CAP:
            raise CapExceeded(built, CAP, "positions or more")

    count(0, rows[0], 0)
    level = [(0, {}, 0)]  # bases of one size: (base, its map, its first row to extend)
    for size in range(1, k):
        nxt = []
        for base, fwd, first in level:
            theirs = rows[base]
            for x in range(first, n):
                a, rest = A.universe[x], theirs[x]
                while rest:
                    low = rest & -rest
                    rest ^= low
                    m = {**fwd, a: B.universe[low.bit_length() - 1]}
                    mine = theirs.copy()
                    for y in near[x]:
                        if mine[y] and A.universe[y] not in m:
                            mine[y] &= extensions(A, B, m, A.universe[y], through=a)
                    child = base | low << x * width
                    rows[child] = mine
                    count(size, mine, x + 1)
                    if size < k - 1:
                        nxt.append((child, m, x + 1))
        level = nxt
    queue = [base for base, mine in rows.items() if not all(mine)]  # pebbled rows are never 0
    bad = set(queue)
    while queue:
        base = queue.pop()
        below, pebbled, rest = [], set(), base
        while rest:
            low = rest & -rest
            rest ^= low
            y = (low.bit_length() - 1) // width
            below.append((base ^ low, y, low >> y * width))
            pebbled.add(y)
        dying = [0]  # the base itself, then each live position one pair above it
        for x, live in enumerate(rows[base]):
            while live and x not in pebbled:
                low = live & -live
                live ^= low
                dying.append(low << x * width)
        for bit in dying:
            for parent, y, c in below:
                other = rows[parent | bit]
                was = other[y]
                if was & c:
                    other[y] = was ^ c
                    if was == c and parent | bit not in bad:
                        bad.add(parent | bit)
                        queue.append(parent | bit)
    return rows


def pebble_game(A: Structure, B: Structure, k: int, tier: int,
                build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
    """Decide the k-pebble game of a tier (`strategy.PairRules.solve`): tier
    1 by `pebble_fixpoint`, tiers 2 and 3 by k-variable types.  There is no
    round bound."""
    return PebbleRules(A, B, k, tier).solve(build_certificate)


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

    def answering(self, pos: Position) -> list[Position]:
        if pos not in self.bases:
            self.bases[pos] = pebble_bases(pos, self.k)
        return self.bases[pos]

    def cover(self, base: Position) -> tuple[Position, int]:
        return base, 0

    def existential(self) -> tuple[bool, Callable]:
        bases = pebble_fixpoint(self.A, self.B, self.k)
        row, col = ({v: i for i, v in enumerate(S.universe)} for S in (self.A, self.B))

        def good(base, _):
            mine = bases[sum(1 << row[a] * len(col) + col[b] for a, b in base)]
            return lambda a, b: mine[row[a]] >> col[b] & 1
        return all(bases[0]), good

    def step(self, base: Position, group, x: str, y: str) -> Position:
        return tuple(sorted((*base, (x, y))))

    def to_json(self, base: Position) -> dict:
        return {"base": list(map(list, base))}

    def from_json(self, fields) -> Position:
        return tuple(map(tuple, fields["base"]))
