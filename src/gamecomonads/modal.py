"""The modal comonad on pointed Kripke structures.

A structure whose symbols all have arity at most 2 is read as a Kripke
structure: unary symbols are propositions, binary symbols are labelled
transitions.  Unfolding a pointed structure to depth k gives the comonad's
play structure; simulation, bisimulation and graded bisimulation approximants
give the three equivalence tiers.

All operations require k >= 1.  The depth-0 approximants are a convention
mismatch with the games (the games check propositions at every position they
visit, including the deepest), so the base relations used here are the
proposition-aware ones: anything coarser would disagree with homomorphism
existence into the unfolding at finite depth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .strategy import answers, certificate
from .structures import (CapExceeded, PointedStructure, SignatureMismatch,
                         Structure, StructureError, validate_structure)

# A play is a flat alternating tuple (a0, label1, a1, ..., labelj, aj).
ModalPlay = tuple[str, ...]

DEFAULT_CAP = 200_000


class ArityError(StructureError):
    """A Kripke operation was given a symbol of arity greater than 2."""


@dataclass
class KripkeView:
    """Unary symbols split from binary ones, with successor lookup.

    `succ` holds, per label and world, the successors in world order, and
    `profiles` the propositions true at each world; `kripke_view` builds both
    once.
    """

    worlds: tuple[str, ...]
    props: dict[str, frozenset[str]]
    transitions: dict[str, frozenset[tuple[str, str]]]
    succ: dict[str, dict[str, tuple[str, ...]]]
    profiles: dict[str, frozenset[str]]

    def profile(self, w: str) -> frozenset[str]:
        return self.profiles.get(w, frozenset())

    def successors(self, w: str, label: str) -> tuple[str, ...]:
        return self.succ[label].get(w, ())


def kripke_view(A: Structure) -> KripkeView:
    props = {}
    transitions = {}
    for name, ar in A.sig.relations.items():
        if ar == 1:
            props[name] = frozenset(t[0] for t in A.relations[name])
        elif ar == 2:
            transitions[name] = frozenset((t[0], t[1]) for t in A.relations[name])
        else:
            raise ArityError(f"arity violation: {name} has arity {ar}, Kripke use needs <= 2")
    order = {w: i for i, w in enumerate(A.universe)}
    succ = {}
    for label, edges in transitions.items():
        out: dict[str, list[str]] = {w: [] for w in A.universe}
        for u, v in sorted(edges, key=lambda e: order[e[1]]):
            out[u].append(v)
        succ[label] = {w: tuple(vs) for w, vs in out.items()}
    profiles = {w: frozenset(name for name, ws in props.items() if w in ws) for w in A.universe}
    return KripkeView(A.universe, props, transitions, succ, profiles)


def view_of(A: Structure) -> KripkeView:
    """A's view, built by `kripke_view` on first use and then kept on A
    (structures are not changed after validation)."""
    if "_kripke_view" not in vars(A):
        vars(A)["_kripke_view"] = kripke_view(A)
    return vars(A)["_kripke_view"]


def _require_kripke_pair(P: PointedStructure, Q: PointedStructure) -> tuple[KripkeView, KripkeView]:
    if P.base.sig != Q.base.sig:
        raise SignatureMismatch("pointed structures have different signatures")
    return view_of(P.base), view_of(Q.base)


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")


def modal_play_id(s: ModalPlay) -> str:
    return json.dumps(list(s), separators=(",", ":"))


def modal_play_of_id(pid: str) -> ModalPlay:
    return tuple(json.loads(pid))


def modal_plays(P: PointedStructure, k: int, cap: int = DEFAULT_CAP) -> list[ModalPlay]:
    """All transition sequences from the point, up to k steps, breadth first."""
    K = view_of(P.base)
    labels = sorted(K.transitions)
    plays: list[ModalPlay] = [(P.point,)]
    frontier: list[ModalPlay] = [(P.point,)]
    for _ in range(k):
        nxt = []
        for s in frontier:
            for label in labels:
                for v in K.successors(s[-1], label):
                    nxt.append(s + (label, v))
        plays.extend(nxt)
        if len(plays) > cap:
            raise CapExceeded(len(plays), cap, "plays")
        frontier = nxt
    return plays


def modal_counit(s: ModalPlay) -> str:
    return s[-1]


def modal_unfold(P: PointedStructure, k: int, cap: int = DEFAULT_CAP) -> PointedStructure:
    """Unravel the structure from its point to depth k.

    Worlds of the result are plays; a proposition holds of a play iff it holds
    of its last element, and a labelled transition connects each play to its
    one-step extensions.
    """
    _check_k(k)
    K = view_of(P.base)  # raises on arity violation
    plays = modal_plays(P, k, cap)
    interp: dict[str, list[list[str]]] = {}
    for name, ws in K.props.items():
        interp[name] = [[modal_play_id(s)] for s in plays if s[-1] in ws]
    for label in K.transitions:
        rows = []
        for s in plays:
            if len(s) > 1 and s[-2] == label:
                rows.append([modal_play_id(s[:-2]), modal_play_id(s)])
        interp[label] = rows
    base = validate_structure(dict(P.base.sig.relations),
                              [modal_play_id(s) for s in plays], interp)
    return PointedStructure(base, modal_play_id((P.point,)))


def modal_coextend(f: Callable[[ModalPlay], str], s: ModalPlay) -> ModalPlay:
    """f*[a] = [f[a]]; f*(s[label, a']) = f*(s)[label, f(s[label, a'])]."""
    out = [f(s[:1])]
    for i in range(1, len(s), 2):
        out.append(s[i])
        out.append(f(s[:i + 2]))
    return tuple(out)


def simulation_game(P: PointedStructure, Q: PointedStructure, k: int
                    ) -> tuple[bool, Optional[dict]]:
    """Decide the k-round existential game from P to Q: depth-k simulation.

    Level j of `rel` holds the world pairs from which Duplicator survives j
    more steps.  The certificate answers each move with the first successor
    in world order that is still simulated with the depth left.
    """
    _check_k(k)
    KA, KB = _require_kripke_pair(P, Q)
    labels = sorted(set(KA.transitions))
    rel = [{(a, b) for a in KA.worlds for b in KB.worlds
            if KA.profile(a) <= KB.profile(b)}]
    for _ in range(k):
        prev = rel[-1]
        rel.append({(a, b) for (a, b) in prev
                    if all(any((ap, bp) in prev for bp in KB.successors(b, lab))
                           for lab in labels for ap in KA.successors(a, lab))})
    if (P.point, Q.point) not in rel[k]:
        return False, None
    return True, certificate(ModalRules(P, Q, k, 1), 1,
                             lambda pos, _: lambda x, y: (x, y) in rel[pos[2] - 1])


class _Unsolved(Exception):
    """A position of the modal game whose value is not known yet."""


def _bisimulation_game(P: PointedStructure, Q: PointedStructure, k: int, tier: int,
                       build_certificate: bool) -> tuple[bool, Optional[dict]]:
    """Tiers 2 and 3 by memoised recursion on (world, world, depth left).

    Each round Spoiler picks a label and a successor on either side, and
    Duplicator answers along the same label (tier 3: with a bijection of the
    successor sets, along which Spoiler moves); the new pair's proposition
    profiles must agree.
    """
    _check_k(k)
    rules = ModalRules(P, Q, k, tier)
    KA, KB = rules.KA, rules.KB
    # The pairs of equal game value at depth j partition the disjoint union
    # of the worlds, each depth refines the last, and once a step refines
    # nothing no later one does; so from |A| + |B| on the value is fixed.
    cap = len(KA.worlds) + len(KB.worlds)

    floor = 0  # the least depth left the recursion may reach

    @lru_cache(maxsize=None)
    def win(a: str, b: str, depth: int) -> bool:
        if depth < floor:
            raise _Unsolved(a, b, depth)
        return depth == 0 or all(
            answers(tier, KA.successors(a, lab), KB.successors(b, lab), keeps(depth - 1, win))
            is not None for lab in rules.labels)

    def solve(a: str, b: str, depth: int) -> bool:
        """win, with the recursion cut 50 levels down: a position below the
        cut is solved first, on an explicit stack, and the one above played
        out again from the start (its solved positions are cached)."""
        nonlocal floor
        stack = [(a, b, depth)]
        while True:
            floor = stack[-1][2] - 50
            try:
                value = win(*stack[-1])
            except _Unsolved as cut:
                stack.append(cut.args)
                continue
            stack.pop()
            if not stack:
                return value

    def keeps(depth: int, value: Callable) -> Callable[[str, str], bool]:
        return lambda x, y: KA.profile(x) == KB.profile(y) and value(x, y, min(depth, cap))

    exists = rules.fault(rules.start()) is None and solve(P.point, Q.point, min(k, cap))
    if not exists or not build_certificate:
        return exists, None
    return True, certificate(rules, tier, lambda pos, _: keeps(pos[2] - 1, solve))


def modal_back_and_forth(P: PointedStructure, Q: PointedStructure, k: int,
                         build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
    """Back-and-forth game on the depth-k unfoldings: depth-k bisimulation.

    Positions are synchronized plays; the winning set requires equal labels
    and matching proposition profiles at every step, so the game value
    depends only on the current endpoints and the remaining depth.
    """
    return _bisimulation_game(P, Q, k, 2, build_certificate)


def graded_bisim_game(P: PointedStructure, Q: PointedStructure, k: int,
                      build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
    """Decide the k-round graded bisimulation game (Duplicator's bijections
    found by bipartite matching over the recursively winning pairs)."""
    return _bisimulation_game(P, Q, k, 3, build_certificate)


class ModalRules:
    """The modal games for `strategy`: a position is (world of P, world of Q,
    depth left), Spoiler's challenges are grouped by label, and the worlds'
    propositions must transfer forward (tier 1) or agree (tiers 2 and 3)."""

    comonad = "modal"

    def __init__(self, P: PointedStructure, Q: PointedStructure, k: int, tier: int):
        self.KA, self.KB = _require_kripke_pair(P, Q)
        self.points, self.k, self.tier = (P.point, Q.point), k, tier
        self.labels = sorted(self.KA.transitions)

    def start(self) -> tuple[str, str, int]:
        return (*self.points, self.k)

    def fault(self, state) -> Optional[str]:
        a, b, _ = state
        pa, pb = self.KA.profile(a), self.KB.profile(b)
        if self.tier == 1:
            return None if pa <= pb else f"propositions of {a!r} do not hold at {b!r}"
        return None if pa == pb else f"{a!r} and {b!r} differ in their propositions"

    def answering(self, state) -> list:
        return [state] if state[2] else []

    def challenges(self, pos) -> list:
        a, b, _ = pos
        return [((lab,), self.KA.successors(a, lab), self.KB.successors(b, lab))
                for lab in self.labels]

    def step(self, pos, group, x: str, y: str) -> tuple[str, str, int]:
        return x, y, pos[2] - 1

    def among(self, pos, group, side: int) -> str:
        return f"a {group[0]}-successor of {pos[side]!r}"

    def to_json(self, pos) -> dict:
        return {"worlds": list(pos[:2]), "depth_left": pos[2]}
