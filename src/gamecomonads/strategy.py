"""One certificate shape for the game tiers, filled by one walk and replayed
by one verifier.

A certificate is {"comonad", "game", "k", "shape": "positions", "positions"}
with one entry per position Duplicator answers from, in breadth-first order
from the start.  An entry holds the position's fields and Duplicator's
answers to Spoiler's challenges there, as lists [*group, challenge, response]
("forth": to challenges in A, "back": to challenges in B) or, at tier 3,
[*group, x, y] pairs that form a bijection per group ("bijection").

A position covers a key with some rounds left (ef: the pair set, modal: the
pair of worlds, pebble: the base with none): answers that win R more rounds
win any fewer, so the walk visits each key once, with the most rounds it is
reached with, and a certificate has one entry per key.  Its rounds left are
an upper bound: the verifier accepts an entry with at least the rounds its
key is reached with.

The game itself is in the rules of each comonad (`ef.EfRules`,
`pebble.PebbleRules`, `modal.ModalRules`): `start()`, `fault(pos, new)`
(None while Duplicator has not lost, else why: at pos, a full check, or
after the pair `new` is played at pos), `cover(pos)` (its key and rounds
left), `challenges(pos)` (the groups (group, xs, ys) of Spoiler's moves),
`after(pos, group, x, y)` (the positions Duplicator answers from next once
(x, y) is played at pos: none after the last round), `among(pos, group,
side)` (what a response in A, side 0, or in B, side 1, must be),
`to_json(pos)` and its inverse `from_json(fields)` (the position an entry's
fields stand for; KeyError, TypeError or ValueError if none).  The verifier
reads only the certificate and the rules, and indexes the entries by key
once.  A solver fills its certificate with its own answers, `answer(pos,
group, xs, ys)`: Duplicator's pairs to one group of challenges, to xs and
then at tier 2 to ys (see `PairRules.solve`, which decides the ef and
pebble games).
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Callable, Mapping, Optional, Union

from .refine import Types
from .structures import Structure, pair_check, require_same_signature

GAMES = ("existential", "back-and-forth", "bijection")
SHAPE = "positions"
ANSWERS = {1: ("forth",), 2: ("forth", "back"), 3: ("bijection",)}
FIELDS = ("forth", "back", "bijection")

Reached = Union[list, str]  # the positions Duplicator answers from next, or a fault


def answers(xs, ys, ok: Callable[[str, str], bool]) -> Optional[list[tuple[str, str]]]:
    """Duplicator's (x, y) answers to one group of tier-1 challenges: for each
    x the first y in order that `ok` accepts, or None if some x has none."""
    out = []
    for x in xs:
        y = next((y for y in ys if ok(x, y)), None)
        if y is None:
            return None
        out.append((x, y))
    return out


def answers_by_colour(tier: int, xs, ys, cx: Mapping[str, int], cy: Mapping[str, int]
                      ) -> Optional[list[tuple[str, str]]]:
    """Duplicator's answers where a response wins iff it has its challenge's
    colour (cx on xs, cy on ys; tiers 2-3 are logical equivalences), or None
    if one has none: the first y of each x's colour, at tier 2 then the
    first x of each y's colour.  Tier 3 gives a class's i-th x its i-th y
    from the end, sorted by x (Kuhn's augmenting paths, tried in order)."""
    if tier == 3:
        if sorted(map(cx.__getitem__, xs)) != sorted(map(cy.__getitem__, ys)):
            return None
        by: dict = {}  # colour -> its ys, in order
        for y in ys:
            by.setdefault(cy[y], []).append(y)
        return sorted((x, by[cx[x]].pop()) for x in xs)
    fx, fy = {cx[x]: x for x in reversed(xs)}, {cy[y]: y for y in reversed(ys)}
    if not (fx.keys() <= fy.keys() if tier == 1 else fx.keys() == fy.keys()):
        return None
    return [(x, fy[cx[x]]) for x in xs] + [(fx[cy[y]], y) for y in ys if tier == 2]


def exact_int(value) -> int:
    """value if it is an int, not a bool or a float; else TypeError."""
    if type(value) is not int:
        raise TypeError(f"not an int: {value!r}")
    return value


def _walk(rules, play: Callable[..., Reached]) -> Optional[str]:
    """Breadth first from the start through the positions `play(pos)`
    returns, each queued only with more rounds left than its key was
    reached with before; returns the first fault `play` finds."""
    order = [rules.start()]
    most = dict(map(rules.cover, order))
    cover, get, append = rules.cover, most.get, order.append
    for pos in order:
        reached = play(pos)
        if isinstance(reached, str):
            return reached
        for nxt in reached:
            key, left = cover(nxt)
            if left > get(key, -1):
                most[key] = left
                append(nxt)
    return None


def certificate(rules, tier: int, answer: Callable) -> dict:
    """The certificate of a won game: at each position and group of
    challenges, Duplicator plays the pairs `answer(pos, group, xs, ys)`, the
    solver's own: the answers to xs first, then at tier 2 those to ys."""
    entries, after = [], rules.after

    def play(pos) -> Reached:
        entry = {**rules.to_json(pos), **{name: [] for name in ANSWERS[tier]}}
        entries.append(entry)
        out = []
        for group, xs, ys in rules.challenges(pos):
            pairs = answer(pos, group, xs, ys)
            entry[ANSWERS[tier][0]] += [[*group, x, y] for x, y in pairs[:len(xs)]]
            if tier == 2:
                entry["back"] += [[*group, y, x] for x, y in pairs[len(xs):]]
            for x, y in dict.fromkeys(pairs):  # each pair once
                out += after(pos, group, x, y)
        return out

    _walk(rules, play)
    return {"comonad": rules.comonad, "game": GAMES[tier - 1], "k": rules.k,
            "shape": SHAPE, "positions": entries}


def verify(rules, tier: int, cert: Mapping) -> tuple[bool, Optional[str]]:
    """Replay a certificate against the rules alone, from the start: every
    position reached must be recorded, each challenge there needs an answer
    of the right kind (tier 3: a bijection per group; pairs on no challenge
    are not read), and no answer may lose.  Only the start gets the full
    check, each answer (x, y) only through itself, once per position it is
    played at: Duplicator answers from a verified position (ef, modal) or a
    subset of one (pebble bases), and the predicates are hereditary.  Entries
    are indexed by the key of the position `rules.from_json` reads from their
    fields, if `to_json` gives those fields back; of two entries for one key
    the one with more rounds left counts, on a tie the later, and it must
    have at least the rounds its key is reached with."""
    if cert.get("shape") != SHAPE:
        return False, f"certificate is not in the {SHAPE!r} shape"
    positions = cert.get("positions")
    if not (isinstance(positions, list) and all(isinstance(e, dict) for e in positions)):
        return False, "the certificate's positions are not a list of objects"
    fault = rules.fault(rules.start())
    if fault:
        return False, f"the start position is lost: {fault}"
    table = {}
    for entry in positions:
        fields = {f: v for f, v in entry.items() if f not in FIELDS}
        try:
            pos = rules.from_json(fields)
            if rules.to_json(pos) == fields:
                key, left = rules.cover(pos)
                if key not in table or table[key][0] <= left:
                    table[key] = left, entry
        except (KeyError, TypeError, ValueError):
            pass  # fields no position has: the entry is never read

    after = rules.after

    def play(pos) -> Reached:
        key, left = rules.cover(pos)
        if key not in table or table[key][0] < left:
            return f"strategy not closed: no answers recorded at {_at(rules, pos)}"
        entry = table[key][1]
        challenges = rules.challenges(pos)
        size = len(challenges[0][0]) if challenges else 0
        mine: dict[tuple, list] = {}
        for name in ANSWERS[tier]:
            recorded = entry.get(name, [])
            if not (type(recorded) is list and set(map(type, recorded)) <= {list}
                    and set(map(len, recorded)) <= {size + 2}
                    and set(map(type, chain.from_iterable(recorded))) <= {str}):
                return (f"the {name} answers at {_at(rules, pos)} are not lists "
                        f"of {size + 2} strings")
            if not size:  # no group: one list per name
                mine[name, ()] = recorded
                continue
            for a in recorded:
                mine.setdefault((name, tuple(a[:size])), []).append(a[size:])
        out = []
        for group, xs, ys in challenges:
            if tier == 3:
                chosen = frozenset(xs)
                pairs = [(x, y) for x, y in mine.get(("bijection", group), []) if x in chosen]
                if (sorted(x for x, _ in pairs) != sorted(xs)
                        or sorted(y for _, y in pairs) != sorted(ys)):
                    return (f"the answer{_along(group)} at {_at(rules, pos)} is not a "
                            f"bijection of {list(xs)} onto {list(ys)}")
                out += [(group, x, y) for x, y in pairs]
                continue
            # side: where the response lies, 1 for B (forth) and 0 for A (back)
            for name, spoiler, duplicator, side in (("forth", xs, ys, 1),
                                                    ("back", ys, xs, 0))[:tier]:
                recorded = dict(mine.get((name, group), ()))
                allowed = frozenset(duplicator)
                for u in spoiler:
                    if u not in recorded:
                        return f"no {name} answer to {u!r}{_along(group)} at {_at(rules, pos)}"
                    v = recorded[u]
                    if v not in allowed:
                        return (f"response {v!r} to {u!r} at {_at(rules, pos)} is not "
                                f"{rules.among(pos, group, side)}")
                    out.append((group, u, v) if side else (group, v, u))
        reached = []
        for group, x, y in dict.fromkeys(out):  # each pair once
            fault = rules.fault(pos, (x, y))
            if fault:
                return f"the answer ({x!r}, {y!r}) at {_at(rules, pos)} loses: {fault}"
            reached += after(pos, group, x, y)
        return reached

    fault = _walk(rules, play)
    return fault is None, fault


def _at(rules, pos) -> str:
    return json.dumps(rules.to_json(pos), sort_keys=True)


def _along(group) -> str:
    return "".join(f" along {label}" for label in group)


class PairRules:
    """What the ef and pebble games share.  Spoiler moves only onto unpebbled
    elements of A (at tier 2 also of B): a move onto a pebbled one must be
    answered by its partner and leaves the position as it was (Kolaitis &
    Vardi, AAAI 2000).  Duplicator answers with any element of B at tier 1,
    else with an unpebbled one of the other side, or a bijection of unpebbled
    onto unpebbled.  The pairs on the board, a position's key (see `cover`),
    must stay a partial homomorphism (tier 1) or a partial isomorphism (tiers
    2 and 3), checked by one `structures.pair_check` bound per rules object
    (with `new` the one-pair check gives the full verdict, in at most k
    lookups: cheaper than keeping verdicts per key).  Each game adds
    `existential()`, its tier-1 solver -> (won, answer)."""

    def __init__(self, A: Structure, B: Structure, k: int, tier: int):
        self.A, self.B, self.k, self.tier = A, B, k, tier
        self.kind = "homomorphism" if tier == 1 else "isomorphism"
        self.check = pair_check(A, B, iso=tier > 1)

    def solve(self, build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
        """Decide the game, with its certificate on a win: tier 1 by
        `existential()`, whose answers are the search's own, tiers 2 and 3
        by rank-k or k-variable (counting) types (`refine.Types`), read at a
        position's key after its rounds left less one (pebble: none left, so
        the last round) and answered by `answers_by_colour`.  Spoiler wins
        tier 3 outright on a cardinality mismatch.  The certificate answers
        each move with the first winning response in universe order (at tier
        3 a bijection of those)."""
        require_same_signature(self.A, self.B)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.tier == 3 and len(self.A.universe) != len(self.B.universe):
            return False, None
        if self.tier == 1:
            won, answer = self.existential()
        else:
            types = Types(self.A, self.B, self.k, pebble=self.comonad == "pebble",
                          counting=self.tier == 3)
            won = types.equal

            def answer(pos, group, xs, ys):
                key, left = self.cover(pos)
                return answers_by_colour(self.tier, xs, ys, *types.colours(sorted(key), left - 1))
        if not won or not build_certificate:
            return won, None
        return True, certificate(self, self.tier, answer)

    def fault(self, pos, new=None) -> Optional[str]:
        pairs = self.cover(pos)[0]
        if self.check(pairs, new):
            return None
        return f"{sorted(map(list, (*pairs, new) if new else pairs))} is not a partial {self.kind}"

    def challenges(self, pos) -> list:
        pairs = self.cover(pos)[0]
        dom = {a for a, _ in pairs}
        xs = [a for a in self.A.universe if a not in dom]
        if self.tier == 1:
            return [((), xs, self.B.universe)]
        rng = {b for _, b in pairs}
        return [((), xs, [b for b in self.B.universe if b not in rng])]

    def among(self, pos, group, side: int) -> str:
        unpebbled = "" if self.tier == 1 else "unpebbled "
        return f"an {unpebbled}element of the {('source', 'target')[side]}"
