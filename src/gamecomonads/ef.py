"""The Ehrenfeucht-Fraisse comonad on finite structures.

A play of rank k over a structure is a non-empty sequence of at most k
elements.  The comonad sends a structure to the structure of all such plays;
a coKleisli map (plays -> target elements) is exactly a Duplicator strategy
for the k-round existential comparison game, and its coextension replays the
strategy prefix by prefix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Callable, Mapping, Optional

from .strategy import PairRules, answers
from .structures import (CapExceeded, Structure, extensions, is_partial_homomorphism,
                         occurrences, require_same_signature, validate_structure)

EfPlay = tuple[str, ...]

DEFAULT_CAP = 200_000


def play_id(s: EfPlay) -> str:
    """Stable string id for a play, used as an element of a materialized structure."""
    return json.dumps(list(s), separators=(",", ":"))


def play_of_id(pid: str) -> EfPlay:
    return tuple(json.loads(pid))


def ef_universe_size(n: int, k: int) -> int:
    return sum(n ** i for i in range(1, k + 1))


def ef_plays(A: Structure, k: int) -> list[EfPlay]:
    """All plays of length 1..k, ordered by length then componentwise universe order."""
    out: list[EfPlay] = []
    frontier: list[EfPlay] = [()]
    for _ in range(k):
        frontier = [s + (a,) for s in frontier for a in A.universe]
        out.extend(frontier)
    return out


def prefix_comparable(s: EfPlay, t: EfPlay) -> bool:
    return s[:len(t)] == t or t[:len(s)] == s


def ef_counit(s: EfPlay) -> str:
    if not s:
        raise ValueError("plays are non-empty")
    return s[-1]


def ef_materialize(A: Structure, k: int, cap: int = DEFAULT_CAP) -> Structure:
    """Build the play structure explicitly.

    Plays become elements (see play_id); a relation holds of a tuple of plays
    iff they are pairwise prefix-comparable and the relation holds of their
    last elements in A.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    size = ef_universe_size(len(A.universe), k)
    if size > cap:
        raise CapExceeded(size, cap)
    plays = ef_plays(A, k)
    interp: dict[str, list[list[str]]] = {}
    for name, tups in A.relations.items():
        ar = A.sig.arity(name)
        rows = []
        # every pairwise-comparable tuple has a unique longest member, so
        # enumerate tuples of prefixes of each play that actually use it
        for s in plays:
            prefixes = [s[:i] for i in range(1, len(s) + 1)]
            for combo in product(prefixes, repeat=ar):
                if s not in combo:
                    continue
                if tuple(c[-1] for c in combo) in tups:
                    rows.append([play_id(c) for c in combo])
        interp[name] = rows
    return validate_structure(dict(A.sig.relations), [play_id(s) for s in plays], interp)


@dataclass
class EfCoKleisli:
    """A total map from plays over `source` to elements of `target`."""

    source: Structure
    target: Structure
    k: int
    table: dict[EfPlay, str]

    def __call__(self, s: EfPlay) -> str:
        return self.table[s]


def coextend_play(f: Callable[[EfPlay], str], s: EfPlay) -> EfPlay:
    """Replay f along the prefixes of s; output has the same length as s."""
    return tuple(f(s[:i]) for i in range(1, len(s) + 1))


def ef_coextension(f: EfCoKleisli) -> dict[EfPlay, EfPlay]:
    return {s: coextend_play(f, s) for s in ef_plays(f.source, f.k)}


Options = tuple[tuple[str, ...], ...]


class EfGame:
    """The existential ef game from A to B, solved by memoised recursion on
    (pair set, rounds left).

    A position is the set of (Spoiler move, Duplicator response) pairs played
    so far; Duplicator survives while it is a partial homomorphism, and must
    answer every element of A.  One memo, local to the game, maps a pair set
    to its options (for each element a of A in universe order, the responses
    b in B's universe order that keep a partial homomorphism) and to whether
    Duplicator wins with each number of rounds left.  A child's options are
    its parent's filtered through the tuples that contain the new pair: the
    predicate is hereditary, and every other tuple was checked at the parent.
    With one round left any option wins, so positions with none left are
    never built.
    """

    def __init__(self, A: Structure, B: Structure):
        self.A, self.B = A, B
        self.occ_a = occurrences(A)
        root: frozenset = frozenset()
        self.memo: dict[frozenset, tuple[Options, dict[int, bool]]] = {
            root: (self._options(root, (B.universe,) * len(A.universe), None), {})}

    def _options(self, pairs: frozenset, parent: Options,
                 new: Optional[tuple[str, str]]) -> Options:
        """Options at pairs, which is a position with options parent plus the
        pair new (at the root new is None and every response is a candidate)."""
        fwd = dict(pairs)
        a0, b0 = new or (None, None)
        options = []
        for a, bs in zip(self.A.universe, parent):
            if a == a0:
                bs = (b0,)
            elif a not in fwd:
                occ = self.occ_a[a] if a0 is None else [o for o in self.occ_a[a] if a0 in o[1]]
                bs = extensions(occ, fwd, a, bs, self.B.relations)
            options.append(bs)
        return tuple(options)

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
            # Rounds beyond the unpebbled elements of A change nothing: a move
            # on a pebbled element is answered by its partner and leaves the
            # position as it was.  So the recursion is never deeper than |A|.
            fresh = len(self.A.universe) - len(pairs)
            wins[rounds] = (self.win(pairs, fresh) if rounds > fresh
                            else self.answers(pairs, rounds) is not None)
        return wins[rounds]

    def answers(self, pairs: frozenset, rounds: int) -> Optional[list[tuple[str, str]]]:
        """Duplicator's answers (`strategy.answers`) at pairs with rounds
        left, or None if Spoiler wins there."""
        options = dict(zip(self.A.universe, self.memo[pairs][0]))
        return answers(1, self.A.universe, self.B.universe, lambda a, b: b in options[a] and (
            rounds == 1 or self.win(self.child(pairs, a, b), rounds - 1)))


def ef_game_exists(A: Structure, B: Structure, k: int,
                   build_strategy: bool = True,
                   strategy_cap: int = DEFAULT_CAP) -> tuple[bool, Optional[EfCoKleisli]]:
    """Decide the k-round existential comparison game from A to B.

    Duplicator survives iff the induced partial map stays a partial
    homomorphism (`EfGame`).  On a win, the full strategy table (one
    response per play) is returned as a coKleisli map; CapExceeded is raised
    if it would exceed strategy_cap entries.
    """
    require_same_signature(A, B)
    if k < 1:
        raise ValueError("k must be >= 1")
    game = EfGame(A, B)
    exists = game.win(frozenset(), k)
    if not exists or not build_strategy:
        return exists, None
    size = ef_universe_size(len(A.universe), k)
    if size > strategy_cap:
        raise CapExceeded(size, strategy_cap, "strategy-table entries")

    table: dict[EfPlay, str] = {}
    stack = [((), frozenset(), k)]
    while stack:
        s, pairs, rounds_left = stack.pop()
        for a, b in game.answers(pairs, rounds_left):
            table[s + (a,)] = b
            if rounds_left > 1:
                stack.append((s + (a,), game.child(pairs, a, b), rounds_left - 1))
    return True, EfCoKleisli(A, B, k, table)


class EfRules(PairRules):
    """The ef game for `strategy`: a position is (pair set, rounds left), and
    Duplicator answers while rounds are left."""

    comonad = "ef"

    def start(self) -> tuple[frozenset, int]:
        return frozenset(), self.k

    def fault(self, state, new=None) -> Optional[str]:
        return self.pairs_fault(state[0], new)

    def answering(self, state) -> list:
        return [state] if state[1] else []

    def step(self, pos, group, x: str, y: str) -> tuple[frozenset, int]:
        return pos[0] | {(x, y)}, pos[1] - 1

    def to_json(self, pos) -> dict:
        return {"pairs": sorted([a, b] for a, b in pos[0]), "rounds_left": pos[1]}


def verify_ef_strategy(f: EfCoKleisli) -> tuple[bool, Optional[str]]:
    """Replay a strategy table against the winning condition.

    The table must cover every play up to rank k, and for each play the
    induced pairs of moves and responses must form a partial homomorphism.
    Plays come prefixes first from the empty play, so each play is checked
    only through its own pair: the rest are its prefix's, already verified.
    """
    A, B, k = f.source, f.target, f.k
    induced = {(): frozenset()}  # the pairs of each play and its coextension
    for s in ef_plays(A, k):  # prefixes first
        if s not in f.table:
            return False, f"strategy undefined on play {list(s)}"
        if f.table[s] not in B.universe:
            return False, f"response to {list(s)} is not a target element"
        new = (s[-1], f.table[s])
        induced[s] = induced[s[:-1]] | {new}
        if not is_partial_homomorphism(induced[s], A, B, new):
            return False, f"position after play {list(s)} is not a partial homomorphism"
    return True, None


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


def strategy_to_json(f: EfCoKleisli) -> dict:
    return {
        "comonad": "ef",
        "game": "existential",
        "k": f.k,
        "strategy": [{"play": list(s), "response": f.table[s]}
                     for s in sorted(f.table, key=lambda s: (len(s), s))],
    }


def strategy_from_json(data: Mapping, A: Structure, B: Structure) -> EfCoKleisli:
    table = {tuple(entry["play"]): entry["response"] for entry in data["strategy"]}
    return EfCoKleisli(A, B, int(data["k"]), table)
