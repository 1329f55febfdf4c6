"""The modal comonad on pointed Kripke structures.

A structure whose symbols all have arity at most 2 is read as a Kripke
structure: unary symbols are propositions, binary symbols are labelled
transitions.  Unfolding a pointed structure to depth k gives the comonad's
play structure.  The three equivalence tiers are the k-round games on the
unfoldings from the points, simulation, bisimulation and graded bisimulation
to depth k, and one solver plays them all (`modal_game`): a breadth-first
pass over the world pairs reachable from the points, then one sweep back
over the rounds left.

All operations require k >= 1.  The games check propositions at every
position they visit, including the deepest, so the depth-0 relation is the
proposition-aware one: anything coarser would disagree with homomorphism
existence into the unfolding at finite depth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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


def modal_game(P: PointedStructure, Q: PointedStructure, k: int, tier: int,
               build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
    """Decide the k-round modal game of a tier: depth-k simulation (1),
    bisimulation (2) or graded bisimulation (3).

    Spoiler picks a label and a successor (tier 1: in P; tier 2: on either
    side; tier 3: along Duplicator's bijection of the successor sets), and
    Duplicator answers along the same label; propositions must transfer
    forward (tier 1) or agree (tiers 2 and 3).  The pairs met within i steps
    from the points, along one label and with passing propositions, are the
    first `ends[i]` of `order`.  `win[d]` holds those met within k - d steps
    from which Duplicator survives d more rounds: every label's challenges
    have `answers` into `win[d - 1]`.  Values only fall with d, so once a
    round drops no pair it could, later rounds drop none; this happens by
    round |A| * |B| at tier 1 (a decreasing chain of relations on A x B) and
    |A| + |B| at tiers 2 and 3 (a partition of the disjoint union that each
    round refines).
    """
    _check_k(k)
    rules = ModalRules(P, Q, k, tier)
    KA, KB, labels = rules.KA, rules.KB, rules.labels
    order = [rules.points] if rules.passes(*rules.points) else []
    seen, ends, start = set(order), [len(order)], 0
    while len(ends) <= k and start < len(order):
        for a, b in order[start:]:
            for lab in labels:
                for x in KA.successors(a, lab):
                    for y in KB.successors(b, lab):
                        if (x, y) not in seen and rules.passes(x, y):
                            seen.add((x, y))
                            order.append((x, y))
        start = ends[-1]
        ends.append(len(order))

    win = [seen]
    for d in range(1, k + 1):
        prev = win[-1]
        kept = [p for p in order[:ends[min(k - d, len(ends) - 1)]] if p in prev]
        win.append({(a, b) for a, b in kept if all(
            answers(tier, KA.successors(a, lab), KB.successors(b, lab),
                    lambda x, y: (x, y) in prev) is not None for lab in labels)})
        if rules.points not in win[-1] or len(win[-1]) == len(kept):
            break
    top = len(win) - 1
    if rules.points not in win[top] or not build_certificate:
        return rules.points in win[top], None
    return True, certificate(rules, tier, lambda pos, _: (
        lambda x, y: (x, y) in win[min(pos[2] - 1, top)]))


def modal_back_and_forth(P: PointedStructure, Q: PointedStructure, k: int,
                         build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
    """Depth-k bisimulation: `modal_game` at tier 2."""
    return modal_game(P, Q, k, 2, build_certificate)


def graded_bisim_game(P: PointedStructure, Q: PointedStructure, k: int,
                      build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
    """Depth-k graded bisimulation: `modal_game` at tier 3."""
    return modal_game(P, Q, k, 3, build_certificate)


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

    def passes(self, a: str, b: str) -> bool:
        pa, pb = self.KA.profile(a), self.KB.profile(b)
        return pa <= pb if self.tier == 1 else pa == pb

    def fault(self, state, new=None) -> Optional[str]:
        a, b, _ = state
        if self.passes(a, b):
            return None
        if self.tier == 1:
            return f"propositions of {a!r} do not hold at {b!r}"
        return f"{a!r} and {b!r} differ in their propositions"

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
