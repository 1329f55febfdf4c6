"""Tuple types by refinement, computed on each structure alone.

Duplicator wins ef tiers 2 and 3 from a position iff the tuples of A and of
B it pairs have the same rank-k (counting) type, and pebble tiers 2 and 3
iff they have the same k-variable (counting) type.  `Types` colours the
tuples of distinct elements of length at most min(k, |universe|) of both
structures, from intern tables that A and B share: first by atomic type,
t·a's being (t's, (t without its last entry)·a's, the facts on (t's last
entry, a)) by `structures.pair_types`, or with a relation of arity 3 or
more t's plus the tuples through a that t·a covers; then each round by (old
colour, for each base of the tuple its old colour and the set, or at tier 3
the sorted multiset, of the old colours of its one-element extensions by
new elements).  A tuple is its own base (for ef its only one); for pebble,
as is a position with one pebble lifted, so are the tuple with one entry
dropped, and the tuple itself only below length k.  Spoiler moves only onto
unpebbled elements (`strategy.PairRules`), so tuples never repeat an
element.  README.md gives the details.
"""

from __future__ import annotations

from math import perm
from typing import Sequence

from .structures import NO_ROW, CapExceeded, Structure, occurrences, pair_types

CAP = 300_000  # tuples of A and B together, at some 500 bytes each


class Types:
    """The colours of the tuples of A and B; `equal` says whether the empty
    tuples end with the same colour, and `colours` reads a position."""

    def __init__(self, A: Structure, B: Structure, k: int, pebble: bool, counting: bool):
        self.sides = (A, B)
        tops = [min(k, len(S.universe)) for S in self.sides]
        size = sum(perm(len(S.universe), i) for S, top in zip(self.sides, tops)
                   for i in range(top + 1))
        if size > CAP:
            raise CapExceeded(size, CAP, "tuples")
        key = (lambda cs: tuple(sorted(cs))) if counting else frozenset
        # Nodes are tuples, by length and then side: the empty tuples of A
        # and B are nodes 0 and 1, and ends[l] is the first node longer than l.
        # A level holds (t, node, a -> the atomic colour of (t without its
        # last entry)·a, or at the empty tuple the facts on (a, a)).
        atoms: dict = {}
        col = [0, 0]                    # node -> colour, first its atomic type
        self.ext: list = []             # node -> the range of its extensions, in universe order
        bases = [[0], [1]]              # pebble only
        self.ids = [{(): 0}, {(): 1}]   # per side: tuple -> node, below length k
        levels = [[((), side, {a: (pair_types(S) or {}).get(a, NO_ROW).get(a) for a in S.universe})]
                  for side, S in enumerate(self.sides)]
        ends = [2]
        self.equal = False
        for n in range(max(tops)):
            for side, S in enumerate(self.sides):
                pt, ids, nxt = pair_types(S), self.ids[side], []
                for t, node, sib in levels[side]:
                    c, first = col[node], len(col)
                    if pt is not None:  # t's colour, t[:-1]·a's and the facts on (t[-1], a)
                        end = t[-1] if t else None
                        row, free = pt.get(end, NO_ROW).get, [a for a in sib if a != end]
                        col += [atoms.setdefault((c, sib[a], row(a)), len(atoms) + 1) for a in free]
                    else:  # t's colour and the tuples through a that t·a covers
                        pos, occ = {x: i for i, x in enumerate(t)}, occurrences(S)
                        free = [a for a in S.universe if a not in pos]
                        for a in free:
                            pos[a] = n
                            part = frozenset((name, tuple(map(pos.__getitem__, u)))
                                             for name, u in occ[a] if all(map(pos.__contains__, u)))
                            del pos[a]
                            col.append(atoms.setdefault((c, part), len(atoms) + 1))
                    self.ext.append(kids := range(first, len(col)))
                    if n + 1 < k:
                        longer = [t + (a,) for a in free]
                        ids.update(zip(longer, kids))
                        nxt += zip(longer, kids, [dict(zip(free, col[first:]))] * len(free))
                    # t·a with entry j dropped is (t with entry j dropped)·a, or t
                    for a, child in zip(free, kids) if pebble else ():
                        bases.append([ids[t[:j] + t[j + 1:] + (a,)] for j in range(n)] + [node]
                                     + [child] * (n + 1 < k))
                levels[side] = nxt
                if side == 0:
                    mid = len(col)
            ends.append(len(col))
            # equal types of the empty tuples need, at each length, equal
            # (multi)sets of atomic types: a difference ends the work early
            if key(col[ends[-2]:mid]) != key(col[mid:]):
                return
        self.ext += [()] * (len(col) - len(self.ext))  # the longest tuples have none

        # An ef tuple of length l needs its rank-(k - l) type only, and is its
        # own only base: one table per round.  Rounds stop once one splits no
        # class or the empty tuples differ.
        self.history = [col]
        r = 0
        while col[0] == col[1] and (pebble or r < k):
            r += 1
            active = range(ends[min(k if pebble else k - r, len(ends) - 1)])
            table: dict = {}
            new = [table.setdefault((col[b], key(map(col.__getitem__, self.ext[b]))), len(table))
                   for b in active]
            if pebble:
                sig, table = new, {}
                new = [table.setdefault((col[t], *map(sig.__getitem__, bases[t])), len(table))
                       for t in active]
            if len(table) == len(set(map(col.__getitem__, active))):
                break  # no class split
            col = new + col[len(active):]
            self.history.append(col)
        self.equal = col[0] == col[1]

    def colours(self, pairs: Sequence[tuple[str, str]], rank: int = -1) -> list[dict]:
        """Per side, each unpebbled element's colour after round `rank` (by
        default the last; no later round splits a class) in the extension by
        it of the tuple the pairs (a partial isomorphism) pebble there."""
        col = self.history[min(rank, len(self.history) - 1)]
        out = []
        for side, S in enumerate(self.sides):
            t = tuple(p[side] for p in pairs)
            new = [a for a in S.universe if a not in t]
            out.append(dict(zip(new, map(col.__getitem__, self.ext[self.ids[side][t]]))))
        return out
