"""The modal comonad on pointed Kripke structures.

A structure whose symbols all have arity at most 2 is read as a Kripke
structure: unary symbols are propositions, binary symbols are labelled
transitions.  Unfolding a pointed structure to depth k gives the comonad's
play structure.  The three equivalence tiers are the k-round games on the
unfoldings from the points, simulation, bisimulation and graded bisimulation
to depth k, and one solver plays them all (`modal_game`): at tier 1 a
breadth-first pass over the world pairs reachable from the points, then one
sweep back over the rounds left; at tiers 2 and 3 colour refinement on the
worlds near each point.

All operations require k >= 1.  The games check propositions at every
position they visit, including the deepest, so the depth-0 relation is the
proposition-aware one: anything coarser would disagree with homomorphism
existence into the unfolding at finite depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional

from .comonad import DEFAULT_CAP, Comonad, read_list
from .strategy import answers, answers_by_colour, certificate, exact_int
from .structures import (CapExceeded, PointedStructure, SignatureMismatch,
                         Structure, StructureError)

# A play is a flat alternating tuple (a0, label1, a1, ..., labelj, aj).
ModalPlay = tuple[str, ...]


class ArityError(StructureError):
    """A Kripke operation was given a symbol of arity greater than 2."""


@dataclass
class KripkeView:
    """Unary symbols split from binary ones, with successor lookup.

    `succ` holds, per label, the worlds with a successor along it, each with
    its successors in world order, and `profiles` the worlds where some
    proposition holds, each with the propositions true there; `kripke_view`
    builds both in one pass over the relations, and `successors` and
    `profile` give () and the empty set for worlds they leave out.
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
    props, transitions, succ, profiles = {}, {}, {}, {}
    rank = {w: i for i, w in enumerate(A.universe)}.__getitem__
    for name, ar in A.sig.relations.items():
        tups = A.relations[name]
        if ar == 1:
            props[name] = ws = frozenset(chain.from_iterable(tups))
            alone = frozenset((name,))
            for w in ws.intersection(profiles):
                profiles[w] |= alone
            profiles.update(dict.fromkeys(ws.difference(profiles), alone))
        elif ar == 2:
            transitions[name] = tups
            out: dict[str, list[str]] = {}
            for u, v in tups:
                out.setdefault(u, []).append(v)
            for vs in out.values():
                vs.sort(key=rank)
            succ[name] = {u: tuple(vs) for u, vs in out.items()}
        else:
            raise ArityError(f"arity violation: {name} has arity {ar}, Kripke use needs <= 2")
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


def modal_plays(P: PointedStructure, k: int, cap: int = DEFAULT_CAP) -> list[ModalPlay]:
    """All transition sequences from the point, up to k steps, breadth first;
    raises `CapExceeded` past cap plays."""
    _check_k(k)
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
        if not nxt:
            break
        frontier = nxt
    return plays


def modal_counit(s: ModalPlay) -> str:
    return s[-1]


def modal_coextend(f: Callable[[ModalPlay], str], s: ModalPlay) -> ModalPlay:
    """f*[a] = [f[a]]; f*(s[label, a']) = f*(s)[label, f(s[label, a'])]."""
    out = [f(s[:1])]
    for i in range(1, len(s), 2):
        out.append(s[i])
        out.append(f(s[:i + 2]))
    return tuple(out)


def _modal_malformed(P: PointedStructure, k: int) -> Callable[[ModalPlay, bool], Optional[str]]:
    transitions, point = view_of(P.base).transitions, P.point

    def why(s: ModalPlay, whole: bool) -> Optional[str]:
        if len(s) % 2 != 1 or len(s) > 2 * k + 1:
            return f"is malformed or longer than depth {k}"
        if s[0] != point:
            return "does not start at the point"
        for u, label, v in zip(s[::2], s[1::2], s[2::2]) if whole else (s[-3:],):
            if (u, v) not in transitions.get(label, ()):
                return f"uses a missing transition {u!r} -{label}-> {v!r}"
        return None
    return why


# A proposition holds of a play iff it holds of its last world, and a labelled
# transition joins each play to its one-step extensions along the label: of
# two prefixes of one play, or two plays of a coalgebra, one step apart, the
# longer extends the shorter iff that step starts at the shorter's end.
MODAL = Comonad(
    before=lambda s: s[:-2] if len(s) > 2 else None,
    counit=modal_counit, coextend=modal_coextend,
    unrelated=lambda name, plays: (
        None if len(plays) == 1 or len(plays[1]) == len(plays[0]) + 2
        and plays[1][-2] == name and plays[1][-3] == plays[0][-1]
        else "target play does not extend source play by this step"),
    malformed=_modal_malformed,
    read=lambda raw: read_list(raw, "worlds and labels"))


def modal_game(P: PointedStructure, Q: PointedStructure, k: int, tier: int,
               build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
    """Decide the k-round modal game of a tier: depth-k simulation (1),
    bisimulation (2) or graded bisimulation (3).

    Spoiler picks a label and a successor (tier 1: in P; tier 2: on either
    side; tier 3: along Duplicator's bijection of the successor sets), and
    Duplicator answers along the same label; propositions must transfer
    forward (tier 1) or agree (tiers 2 and 3).  Tier 1 sweeps world pairs
    (`_simulation`), tiers 2 and 3 colour each side's worlds (`_refinement`).
    """
    _check_k(k)
    rules = ModalRules(P, Q, k, tier)
    won, answer = (_simulation if tier == 1 else _refinement)(rules)
    if not won or not build_certificate:
        return won, None
    return True, certificate(rules, tier, answer)


def _simulation(rules: ModalRules) -> tuple[bool, Callable]:
    """Tier 1: `win[d]` holds the world pairs met along one label, with
    propositions that transfer, within k - d steps, from which every label's
    challenges have `answers` into `win[d - 1]`.  Values only fall with d, so
    the sweep stops once a round drops no pair it could (by round |A| * |B|)."""
    k, passes = rules.k, rules.passes
    succ = [(sa, sb) for _, sa, sb in rules.succ]
    order = [rules.points] if passes(*rules.points) else []
    dist = dict.fromkeys(order, 0)  # the pairs met within k steps, by distance
    for a, b in order:
        for sa, sb in succ if dist[a, b] < k else ():
            for x in sa.get(a, ()):
                for y in sb.get(b, ()):
                    if (x, y) not in dist and passes(x, y):
                        dist[x, y] = dist[a, b] + 1
                        order.append((x, y))

    win, member = [dist], [lambda x, y: (x, y) in dist]
    for d in range(1, k + 1):
        kept = [p for p in order if dist[p] <= k - d and p in win[-1]]
        win.append({(a, b) for a, b in kept if all(
            answers(sa.get(a, ()), sb.get(b, ()), member[-1]) is not None for sa, sb in succ)})
        member.append(lambda x, y, level=win[-1]: (x, y) in level)
        if rules.points not in win[-1] or len(win[-1]) == len(kept):
            break
    top = len(win) - 1
    return rules.points in win[top], lambda pos, group, xs, ys: answers(
        xs, ys, member[min(pos[2] - 1, top)])


def _refinement(rules: ModalRules) -> tuple[bool, Callable]:
    """Tiers 2 and 3 by colour refinement on each side's worlds (Kanellakis &
    Smolka, Inf. Comput. 1990), one intern table per round for both sides.
    Round d colours the worlds within k - d steps of their point, at round 0
    by their propositions, then by their old colour and, per label, the set
    (tier 2) or sorted multiset (tier 3) of their successors' old colours:
    Duplicator survives d rounds from a pair iff its worlds share a colour.
    Rounds stop once the points' colours differ or a round splits no class."""
    k = rules.k
    key = frozenset if rules.tier == 2 else (lambda cs: tuple(sorted(cs)))
    table: dict = {}
    col, sides = [], []  # per side: colours; successor maps, worlds near the point, distances
    for side, (K, point) in enumerate(zip((rules.KA, rules.KB), rules.points)):
        succ = [maps[1 + side] for maps in rules.succ]
        near, dist = [point], {point: 0}  # the worlds within k steps, by distance
        for w in near:
            for s in succ if dist[w] < k else ():
                for v in s.get(w, ()):
                    if v not in dist:
                        dist[v] = dist[w] + 1
                        near.append(v)
        col.append({w: table.setdefault(K.profile(w), len(table)) for w in near})
        sides.append((succ, near, dist))
    history = [col]
    (a, b), d = rules.points, 0
    while col[0][a] == col[1][b] and d < k:
        d += 1
        table = {}
        new = [{w: table.setdefault(
                    (old[w], *[key(map(old.__getitem__, s.get(w, ()))) for s in succ]), len(table))
                for w in near if dist[w] <= k - d}
               for old, (succ, near, dist) in zip(col, sides)]
        if len(table) == len({old[w] for old, ws in zip(col, new) for w in ws}):
            break  # no class split
        col = new
        history.append(col)
    top = len(history) - 1
    return col[0][a] == col[1][b], lambda pos, group, xs, ys: answers_by_colour(
        rules.tier, xs, ys, *history[min(pos[2] - 1, top)])


class ModalRules:
    """The modal games for `strategy`: a position is (world of P, world of Q,
    depth left), Spoiler's challenges are grouped by label, and the worlds'
    propositions must transfer forward (tier 1) or agree (tiers 2 and 3)."""

    comonad = "modal"

    def __init__(self, P: PointedStructure, Q: PointedStructure, k: int, tier: int):
        self.KA, self.KB = _require_kripke_pair(P, Q)
        self.points, self.k, self.tier = (P.point, Q.point), k, tier
        self.succ = [(lab, self.KA.succ[lab], self.KB.succ[lab])  # per label, in order
                     for lab in sorted(self.KA.transitions)]

    def start(self) -> tuple[str, str, int]:
        return (*self.points, self.k)

    def passes(self, a: str, b: str) -> bool:
        pa, pb = self.KA.profile(a), self.KB.profile(b)
        return pa <= pb if self.tier == 1 else pa == pb

    def fault(self, pos, new=None) -> Optional[str]:
        a, b = new or pos[:2]
        if self.passes(a, b):
            return None
        if self.tier == 1:
            return f"propositions of {a!r} do not hold at {b!r}"
        return f"{a!r} and {b!r} differ in their propositions"

    def cover(self, pos) -> tuple[tuple[str, str], int]:
        return pos[:2], pos[2]

    def challenges(self, pos) -> list:
        a, b, _ = pos
        return [((lab,), sa.get(a, ()), sb.get(b, ())) for lab, sa, sb in self.succ]

    def after(self, pos, group, x: str, y: str) -> list:
        return [(x, y, pos[2] - 1)] if pos[2] > 1 else []

    def among(self, pos, group, side: int) -> str:
        return f"a {group[0]}-successor of {pos[side]!r}"

    def to_json(self, pos) -> dict:
        return {"worlds": list(pos[:2]), "depth_left": pos[2]}

    def from_json(self, fields) -> tuple[str, str, int]:
        a, b = fields["worlds"]
        return a, b, exact_int(fields["depth_left"])
