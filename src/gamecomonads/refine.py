"""Tuple types by refinement, computed on each structure alone.

Duplicator wins ef tiers 2 and 3 from a position iff the tuples of A and of
B it pairs have the same rank-k (counting) type, and pebble tiers 2 and 3
iff they have the same k-variable (counting) type.  `Types` colours the
tuples of distinct elements of length at most min(k, |universe|) of both
structures, from intern tables that A and B share: first by atomic type,
then each round by (old colour, for each base of the tuple its old colour
and the set, or at tier 3 the sorted multiset, of the old colours of its
one-element extensions by new elements).  A tuple is its own base; for
pebble, as is a position with one pebble lifted, so are the tuple with one
entry dropped, and the tuple itself only below length k.  A move onto a
pebbled element must be answered by its partner and leaves the position's
pairs as they were, so tuples never repeat an element.  README.md gives the
details.
"""

from __future__ import annotations

from math import perm
from typing import Callable, Sequence

from .structures import CapExceeded, Structure, occurrences

CAP = 300_000  # tuples of A and B together, at some 500 bytes each


class Types:
    """The colours of the tuples of A and B; `equal` says whether the empty
    tuples end with the same colour, and `same_after` reads a position."""

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
        atoms: dict = {}
        col = [0, 0]                    # node -> colour, first its atomic type
        self.ext: list[list[int]] = [[], []]  # node -> its extensions, in universe order
        bases = [[0], [1]]
        self.ids = [{(): 0}, {(): 1}]   # per side: tuple -> node, below length k
        levels: list[list] = [[((), 0)], [((), 1)]]
        ends = [2]
        self.equal = False
        for n in range(max(tops)):
            for side, S in enumerate(self.sides):
                occ, ids, nxt = occurrences(S), self.ids[side], []
                for t, node in levels[side]:
                    pos = {x: i for i, x in enumerate(t)}
                    for a in S.universe:
                        if a in pos:
                            continue
                        pos[a] = n  # the type of t·a is t's plus the tuples through a
                        part = frozenset((name, tuple(map(pos.__getitem__, u)))
                                         for name, u in occ[a] if all(map(pos.__contains__, u)))
                        del pos[a]
                        child = len(col)
                        self.ext[node].append(child)
                        col.append(atoms.setdefault((col[node], part), len(atoms) + 1))
                        self.ext.append([])
                        # t·a with entry j dropped is (t with entry j dropped)·a, or t
                        bases.append([ids[t[:j] + t[j + 1:] + (a,)] for j in range(n)] + [node]
                                     + [child] * (n + 1 < k) if pebble else [child])
                        if n + 1 < k:
                            ids[t + (a,)] = child
                            nxt.append((t + (a,), child))
                levels[side] = nxt
                if side == 0:
                    mid = len(col)
            ends.append(len(col))
            # equal types of the empty tuples need, at each length, equal
            # (multi)sets of atomic types: a difference ends the work early
            if key(col[ends[-2]:mid]) != key(col[mid:]):
                return

        # An ef tuple of length l needs its rank-(k - l) type only.  Rounds
        # stop once one splits no class or the empty tuples differ.
        self.history = [col]
        r = 0
        while col[0] == col[1] and (pebble or r < k):
            r += 1
            active = range(ends[min(k if pebble else k - r, len(ends) - 1)])
            sets: dict = {}
            sig = [sets.setdefault((col[b], key(map(col.__getitem__, self.ext[b]))), len(sets))
                   for b in active]
            table: dict = {}
            new = list(col)
            for t in active:
                new[t] = table.setdefault((col[t], *map(sig.__getitem__, bases[t])), len(table))
            if len(table) == len(set(map(col.__getitem__, active))):
                break  # no class split
            col = new
            self.history.append(col)
        self.equal = col[0] == col[1]

    def same_after(self, pairs: Sequence[tuple[str, str]], rank: int = -1
                   ) -> Callable[[str, str], bool]:
        """Whether the pairs (a partial isomorphism, repeats allowed) plus a
        pair (a, b) pair tuples of the same colour after round `rank` (by
        default the last; no later round splits a class).  A pebbled a must
        go to its partner, and the position's pairs are then as they were."""
        pairs = list(dict.fromkeys(pairs))
        fwd = dict(pairs)
        col = self.history[min(rank, len(self.history) - 1)]
        colours = []
        for side, S in enumerate(self.sides):
            t = tuple(p[side] for p in pairs)
            new = [a for a in S.universe if a not in t]
            colours.append(dict(zip(new, map(col.__getitem__, self.ext[self.ids[side][t]]))))
        ca, cb = colours
        return lambda a, b: fwd[a] == b if a in fwd else ca[a] == cb.get(b)
