"""The Ehrenfeucht-Fraisse comonad on finite structures.

A play of rank k over a structure is a non-empty sequence of at most k
elements.  The comonad sends a structure to the structure of all such plays;
a coKleisli map (plays -> target elements) is exactly a Duplicator strategy
for the k-round existential comparison game, and its coextension replays the
strategy prefix by prefix.  `ef_game` decides the games of all three tiers.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from .comonad import (DEFAULT_CAP, Comonad, comparable, drop_move,
                      read_list)
from .strategy import PairRules, exact_int
from .structures import CapExceeded, Extender, Structure

EfPlay = tuple[str, ...]


def ef_universe_size(n: int, k: int) -> int:
    return sum(n ** i for i in range(1, k + 1))


def ef_plays(A: Structure, k: int, cap: int = DEFAULT_CAP) -> list[EfPlay]:
    """All plays of length 1..k, ordered by length then componentwise
    universe order; raises `CapExceeded` past cap plays."""
    if k < 1:
        raise ValueError("k must be >= 1")
    size = ef_universe_size(len(A.universe), k)
    if size > cap:
        raise CapExceeded(size, cap, "plays")
    out: list[EfPlay] = []
    frontier: list[EfPlay] = [()]
    for _ in range(k):
        frontier = [s + (a,) for s in frontier for a in A.universe]
        out.extend(frontier)
    return out


def ef_counit(s: EfPlay) -> str:
    if not s:
        raise ValueError("plays are non-empty")
    return s[-1]


def coextend_play(f: Callable[[EfPlay], str], s: EfPlay) -> EfPlay:
    """Replay f along the prefixes of s; output has the same length as s."""
    return tuple(f(s[:i]) for i in range(1, len(s) + 1))


def _ef_malformed(A: Structure, k: int) -> Callable[[EfPlay, bool], Optional[str]]:
    universe = frozenset(A.universe)

    def why(s: EfPlay, whole: bool) -> Optional[str]:
        if not 1 <= len(s) <= k:
            return f"has length {len(s)}, not in 1..{k}"
        return None if universe.issuperset(s if whole else s[-1:]) else "leaves the universe"
    return why


# A tuple of plays is related iff they are pairwise prefix-comparable (and the
# relation holds of their last elements, as for every comonad).
EF = Comonad(
    before=drop_move, counit=ef_counit, coextend=coextend_play,
    unrelated=lambda name, plays: (
        None if comparable(plays) else "plays are not prefix-comparable"),
    malformed=_ef_malformed,
    read=lambda raw: read_list(raw, "elements"))


class EfCoKleisli:
    """A total map from plays over `source` to elements of `target`: a
    Duplicator strategy.  It is given as its table, or as the certificate of
    the game (positions or a homomorphism, see `PairRules.solve`), from
    which the table is read off when first asked for (see `_table_of`)."""

    def __init__(self, source: Structure, target: Structure, k: int,
                 table: Optional[dict[EfPlay, str]] = None,
                 certificate: Optional[dict] = None):
        self.source, self.target, self.k = source, target, k
        self.certificate = certificate
        self._table = table

    @property
    def table(self) -> dict[EfPlay, str]:
        if self._table is None:
            self._table = _table_of(self.certificate,
                                    EfRules(self.source, self.target, self.k, 1))
        return self._table

    def __call__(self, s: EfPlay) -> str:
        return self.table[s]


def _table_of(cert: Mapping, rules: EfRules) -> dict[EfPlay, str]:
    """The play table of a certificate: the response to a play s is h(s[-1])
    for a homomorphism h, else the partner of s[-1] if the prefix pebbled
    it, else the answer to s[-1] recorded at the pair set the prefix reached."""
    h = cert.get("map")
    forth = {tuple(map(tuple, e["pairs"])): dict(e["forth"]) for e in cert.get("positions", ())}
    table: dict[EfPlay, str] = {}
    stack: list[tuple[EfPlay, dict[str, str]]] = [((), {})]
    while stack:
        s, fwd = stack.pop()
        for a in rules.A.universe:
            b = h[a] if h else fwd[a] if a in fwd else forth[tuple(sorted(fwd.items()))][a]
            table[s + (a,)] = b
            if len(s) + 1 < rules.k:
                stack.append((s + (a,), {**fwd, a: b}))
    return table


def ef_coextension(f: EfCoKleisli) -> dict[EfPlay, EfPlay]:
    return {s: coextend_play(f, s) for s in ef_plays(f.source, f.k)}


class EfGame:
    """The existential ef game of `rules` (an `EfRules` at tier 1), solved by
    memoised recursion on pair sets.

    A position is the set of (Spoiler move, Duplicator response) pairs played
    so far; Duplicator survives while it is a partial homomorphism, and must
    answer every challenge of the rules.  Each round pebbles a new element,
    so a pair set is always reached with the same rounds left.  One memo,
    local to the game, maps a pair set to a list of its options (for each
    element a of A in universe order, the mask over B's universe of the
    responses that keep a partial homomorphism; read only for the unpebbled
    a) and, once found, Duplicator's answers there (None if Spoiler wins).
    A child's options are its parent's extended by the new pair
    (`structures.Extender`: one AND with the row of the pair, memoised per
    pair, when every arity is 2 at most): the predicate is hereditary, and
    every other tuple was checked at the parent.  With one round left any
    option wins, so positions with none left are never built.
    """

    def __init__(self, rules: EfRules):
        self.A, self.B = rules.A, rules.B
        self.ext = Extender(self.A, self.B)
        self.memo: dict[frozenset, list] = {frozenset(): [self.ext.start]}

    def child(self, pairs: frozenset, a: str, b: str) -> frozenset:
        """pairs plus (a, b), an option at pairs, with its options memoised."""
        nxt = pairs | {(a, b)}
        if nxt not in self.memo:
            self.memo[nxt] = [self.ext.extend(self.memo[pairs][0], a, b, pairs)]
        return nxt

    def win(self, pairs: frozenset, rounds: int) -> bool:
        """Whether Duplicator survives the `rounds` left at pairs."""
        return rounds == 0 or self.answers((pairs, rounds)) is not None

    def answers(self, pos, *_) -> Optional[list[tuple[str, str]]]:
        """Duplicator's answers at pos, (pair set, rounds left), as
        `strategy.answers` gives them at tier 1, or None if Spoiler wins: the
        first winning response to each challenge, trying the set bits of its
        options lowest first.  Found once per pair set and kept; as the
        answer `strategy.certificate` takes, it ignores the group passed."""
        pairs, rounds = pos
        entry = self.memo[pairs]
        if len(entry) == 2:
            return entry[1]
        dom, out = {a for a, _ in pairs}, []  # the challenges: A's unpebbled elements
        for a, rest in zip(self.A.universe, entry[0]):
            if a in dom:
                continue
            while rest:
                low = rest & -rest
                rest ^= low
                b = self.B.universe[low.bit_length() - 1]
                if rounds == 1 or self.win(self.child(pairs, a, b), rounds - 1):
                    out.append((a, b))
                    break
            else:
                out = None
                break
        entry.append(out)
        return out


def ef_game(A: Structure, B: Structure, k: int, tier: int,
            build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
    """Decide the k-round ef game of a tier (`strategy.PairRules.solve`):
    tier 1 by game search (`EfGame`), tiers 2 and 3 by rank-k types."""
    return EfRules(A, B, k, tier).solve(build_certificate)


def ef_game_exists(A: Structure, B: Structure, k: int,
                   build_strategy: bool = True) -> tuple[bool, Optional[EfCoKleisli]]:
    """The existential ef game (`ef_game` at tier 1), with a winning strategy
    returned as a coKleisli map that holds its certificate; its
    play table is built only when asked for."""
    exists, cert = ef_game(A, B, k, 1, build_strategy)
    return exists, cert and EfCoKleisli(A, B, k, certificate=cert)


class EfRules(PairRules):
    """The ef game for `strategy`: a position is (pair set, rounds left), its
    key the pair set, and Duplicator answers while rounds are left.  The game
    starts with k rounds, or as many as A has elements (tier 1) or the larger
    side has (tiers 2 and 3) if fewer: more rounds than that change nothing.
    So the rounds left are min(k, size) - |pairs|."""

    comonad = "ef"

    def cover(self, pos) -> tuple[frozenset, int]:
        return pos

    def existential(self) -> tuple[bool, Callable]:
        game = EfGame(self)
        return game.win(*self.start()), game.answers

    def start(self) -> tuple[frozenset, int]:
        sizes = len(self.A.universe), len(self.B.universe)
        return frozenset(), min(self.k, sizes[0] if self.tier == 1 else max(sizes))

    def after(self, pos, group, x: str, y: str) -> list:
        return [(pos[0] | {(x, y)}, pos[1] - 1)] if pos[1] > 1 else []

    def to_json(self, pos) -> dict:
        return {"pairs": sorted([a, b] for a, b in pos[0]), "rounds_left": pos[1]}

    def from_json(self, fields) -> tuple[frozenset, int]:
        return frozenset(map(tuple, fields["pairs"])), exact_int(fields["rounds_left"])


def i_morphism_normalize(f: EfCoKleisli) -> EfCoKleisli:
    """Collapse responses on plays whose last element already occurred.

    The value at such a play is copied from the prefix ending at the first
    occurrence, making the result invariant under repeated moves while
    remaining a homomorphism.
    """
    table: dict[EfPlay, str] = {}
    for s, value in f.table.items():
        first = s.index(s[-1])
        if first == len(s) - 1:
            table[s] = value
        else:
            table[s] = f.table[s[:first + 1]]
    return EfCoKleisli(f.source, f.target, f.k, table)


def is_i_morphism(f: EfCoKleisli) -> bool:
    for s in f.table:
        first = s.index(s[-1])
        if f.table[s] != f.table[s[:first + 1]]:
            return False
    return True
