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
from typing import Callable, Mapping, Optional

from .matching import perfect_matching
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


def _require_kripke_pair(P: PointedStructure, Q: PointedStructure) -> tuple[KripkeView, KripkeView]:
    if P.base.sig != Q.base.sig:
        raise SignatureMismatch("pointed structures have different signatures")
    return kripke_view(P.base), kripke_view(Q.base)


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")


def modal_play_id(s: ModalPlay) -> str:
    return json.dumps(list(s), separators=(",", ":"))


def modal_play_of_id(pid: str) -> ModalPlay:
    return tuple(json.loads(pid))


def modal_plays(P: PointedStructure, k: int, cap: int = DEFAULT_CAP) -> list[ModalPlay]:
    """All transition sequences from the point, up to k steps, breadth first."""
    K = kripke_view(P.base)
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
    K = kripke_view(P.base)  # raises on arity violation
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


def simulation_levels(P: PointedStructure, Q: PointedStructure, k: int
                      ) -> list[set[tuple[str, str]]]:
    """Depth-j simulation relations for j = 0..k: entry j holds the world
    pairs from which Duplicator survives j more steps of the existential game."""
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
    return rel


def simulation_approx(P: PointedStructure, Q: PointedStructure, k: int) -> bool:
    """Depth-k simulation: propositions must transfer forward and every
    transition must be matched, recursively to depth k."""
    return (P.point, Q.point) in simulation_levels(P, Q, k)[k]


def bisim_approx(P: PointedStructure, Q: PointedStructure, k: int) -> bool:
    """Depth-k bisimulation: propositions agree and transitions match both ways."""
    _check_k(k)
    KA, KB = _require_kripke_pair(P, Q)
    labels = sorted(set(KA.transitions))
    rel = {(a, b) for a in KA.worlds for b in KB.worlds
           if KA.profile(a) == KB.profile(b)}
    for _ in range(k):
        rel = {(a, b) for (a, b) in rel
               if all(any((ap, bp) in rel for bp in KB.successors(b, lab))
                      for lab in labels for ap in KA.successors(a, lab))
               and all(any((ap, bp) in rel for ap in KA.successors(a, lab))
                       for lab in labels for bp in KB.successors(b, lab))}
    return (P.point, Q.point) in rel


def graded_classes(P: PointedStructure, Q: PointedStructure, k: int) -> dict:
    """Iterated partition refinement on the disjoint union of the two worlds.

    Level-0 classes are the proposition profiles; the class at level j+1 is
    the profile together with, per label, the multiset of level-j classes of
    the successors.  Returns the level-k class id of every (side, world).
    """
    _check_k(k)
    KA, KB = _require_kripke_pair(P, Q)
    labels = sorted(set(KA.transitions))
    views = {0: KA, 1: KB}
    nodes = [(0, w) for w in KA.worlds] + [(1, w) for w in KB.worlds]
    cls = {}
    keys = {}
    for node in nodes:
        side, w = node
        key = tuple(sorted(views[side].profile(w)))
        cls[node] = keys.setdefault(key, len(keys))
    for _ in range(k):
        keys = {}
        new = {}
        for node in nodes:
            side, w = node
            sig = (tuple(sorted(views[side].profile(w))),
                   tuple((lab, tuple(sorted(cls[(side, v)]
                                            for v in views[side].successors(w, lab))))
                         for lab in labels))
            new[node] = keys.setdefault(sig, len(keys))
        cls = new
    return cls


def graded_bisim_approx(P: PointedStructure, Q: PointedStructure, k: int) -> bool:
    """Graded bisimulation to depth k via partition refinement.

    A successor bijection respecting the level-j relation exists iff the
    multisets of level-j classes agree, so equality of level-k classes decides
    the approximant.
    """
    cls = graded_classes(P, Q, k)
    return cls[(0, P.point)] == cls[(1, Q.point)]


def graded_bisim_game(P: PointedStructure, Q: PointedStructure, k: int,
                      build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
    """Decide the k-round graded bisimulation game.

    Round 0 compares proposition profiles of the points.  Each later round:
    Spoiler picks a label, Duplicator supplies a bijection between the
    successor sets, Spoiler moves along it, and the new pair's profiles must
    agree.  Duplicator's bijections are found by bipartite matching over the
    recursively winning pairs.
    """
    _check_k(k)
    KA, KB = _require_kripke_pair(P, Q)
    labels = sorted(set(KA.transitions))

    @lru_cache(maxsize=None)
    def win(a: str, b: str, rounds: int) -> bool:
        if rounds == 0:
            return True
        for lab in labels:
            succ_a = KA.successors(a, lab)
            succ_b = KB.successors(b, lab)
            if perfect_matching(succ_a, succ_b,
                                 lambda x, y: KA.profile(x) == KB.profile(y)
                                 and win(x, y, rounds - 1)) is None:
                return False
        return True

    if KA.profile(P.point) != KB.profile(Q.point):
        return False, None
    exists = win(P.point, Q.point, k)
    if not exists or not build_certificate:
        return exists, None

    entries = []
    seen = set()
    queue = [(P.point, Q.point, k)]
    while queue:
        a, b, rounds = queue.pop(0)
        if (a, b, rounds) in seen or rounds == 0:
            continue
        seen.add((a, b, rounds))
        for lab in labels:
            theta = perfect_matching(KA.successors(a, lab), KB.successors(b, lab),
                                      lambda x, y: KA.profile(x) == KB.profile(y)
                                      and win(x, y, rounds - 1))
            entries.append({"a": a, "b": b, "rounds_left": rounds, "label": lab,
                            "bijection": sorted([x, y] for x, y in theta.items())})
            for x, y in theta.items():
                queue.append((x, y, rounds - 1))
    cert = {"comonad": "modal", "game": "graded-bisimulation", "k": k,
            "rounds": entries}
    return True, cert


def verify_graded_certificate(cert: Mapping, P: PointedStructure,
                              Q: PointedStructure) -> tuple[bool, Optional[str]]:
    """Replay per-round bijections: closure, bijectivity, profile agreement."""
    KA, KB = _require_kripke_pair(P, Q)
    k = int(cert["k"])
    labels = sorted(set(KA.transitions))
    if KA.profile(P.point) != KB.profile(Q.point):
        return False, "profiles of the points differ"
    table = {}
    for entry in cert["rounds"]:
        table[(entry["a"], entry["b"], int(entry["rounds_left"]), entry["label"])] = \
            [(x, y) for x, y in entry["bijection"]]
    frontier = {(P.point, Q.point, k)}
    seen = set()
    while frontier:
        a, b, rounds = frontier.pop()
        if rounds == 0 or (a, b, rounds) in seen:
            continue
        seen.add((a, b, rounds))
        for lab in labels:
            key = (a, b, rounds, lab)
            if key not in table:
                return False, f"no bijection recorded at {key}"
            theta = table[key]
            if sorted(x for x, _ in theta) != sorted(KA.successors(a, lab)):
                return False, f"bijection at {key} does not cover the successors of {a!r}"
            if sorted(y for _, y in theta) != sorted(KB.successors(b, lab)):
                return False, f"bijection at {key} does not cover the successors of {b!r}"
            if len({x for x, _ in theta}) != len(theta) or len({y for _, y in theta}) != len(theta):
                return False, f"map at {key} is not a bijection"
            for x, y in theta:
                if KA.profile(x) != KB.profile(y):
                    return False, f"profiles differ on pair ({x!r}, {y!r})"
                frontier.add((x, y, rounds - 1))
    return True, None


def modal_back_and_forth(P: PointedStructure, Q: PointedStructure, k: int,
                         build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
    """Back-and-forth game on the depth-k unfoldings.

    Positions are synchronized plays; the winning set requires equal labels
    and matching proposition profiles at every step, so the game value
    depends only on the current endpoints and the remaining depth.
    """
    _check_k(k)
    KA, KB = _require_kripke_pair(P, Q)
    labels = sorted(set(KA.transitions))

    @lru_cache(maxsize=None)
    def win(a: str, b: str, depth: int) -> bool:
        if depth == 0:
            return True
        for lab in labels:
            for ap in KA.successors(a, lab):
                if not any(KA.profile(ap) == KB.profile(bp) and win(ap, bp, depth - 1)
                           for bp in KB.successors(b, lab)):
                    return False
            for bp in KB.successors(b, lab):
                if not any(KA.profile(ap) == KB.profile(bp) and win(ap, bp, depth - 1)
                           for ap in KA.successors(a, lab)):
                    return False
        return True

    if KA.profile(P.point) != KB.profile(Q.point):
        return False, None
    exists = win(P.point, Q.point, k)
    if not exists or not build_certificate:
        return exists, None

    entries = []
    seen = set()
    queue = [(P.point, Q.point, k)]
    while queue:
        a, b, depth = queue.pop(0)
        if (a, b, depth) in seen or depth == 0:
            continue
        seen.add((a, b, depth))
        moves = []
        for lab in labels:
            for ap in KA.successors(a, lab):
                bp = next(x for x in KB.successors(b, lab)
                          if KA.profile(ap) == KB.profile(x) and win(ap, x, depth - 1))
                moves.append({"side": "left", "label": lab, "element": ap, "response": bp})
                queue.append((ap, bp, depth - 1))
            for bp in KB.successors(b, lab):
                ap = next(x for x in KA.successors(a, lab)
                          if KA.profile(x) == KB.profile(bp) and win(x, bp, depth - 1))
                moves.append({"side": "right", "label": lab, "element": bp, "response": ap})
                queue.append((ap, bp, depth - 1))
        entries.append({"a": a, "b": b, "depth_left": depth, "moves": moves})
    cert = {"comonad": "modal", "game": "back-and-forth", "k": k, "positions": entries}
    return True, cert


def verify_modal_bf_certificate(cert: Mapping, P: PointedStructure,
                                Q: PointedStructure) -> tuple[bool, Optional[str]]:
    """Closure, label agreement and profile agreement of a two-sided strategy."""
    KA, KB = _require_kripke_pair(P, Q)
    labels = sorted(set(KA.transitions))
    k = int(cert["k"])
    table = {}
    for entry in cert["positions"]:
        table[(entry["a"], entry["b"], int(entry["depth_left"]))] = \
            {(m["side"], m["label"], m["element"]): m["response"]
             for m in entry["moves"]}
    if KA.profile(P.point) != KB.profile(Q.point):
        return False, "profiles of the points differ"
    if (P.point, Q.point, k) not in table:
        return False, "initial position missing"
    for (a, b, depth) in sorted(table):
        if KA.profile(a) != KB.profile(b):
            return False, f"profiles differ at ({a!r}, {b!r})"
        moves = table[(a, b, depth)]
        for lab in labels:
            for ap in KA.successors(a, lab):
                if ("left", lab, ap) not in moves:
                    return False, f"no response to {lab}-move to {ap!r} at ({a!r}, {b!r})"
                bp = moves[("left", lab, ap)]
                if bp not in KB.successors(b, lab):
                    return False, f"response {bp!r} is not a {lab}-successor of {b!r}"
                if KA.profile(ap) != KB.profile(bp):
                    return False, f"profiles differ at ({ap!r}, {bp!r})"
                if depth - 1 >= 1 and (ap, bp, depth - 1) not in table:
                    return False, f"strategy not closed at ({ap!r}, {bp!r})"
            for bp in KB.successors(b, lab):
                if ("right", lab, bp) not in moves:
                    return False, f"no response to {lab}-move to {bp!r} at ({a!r}, {b!r})"
                ap = moves[("right", lab, bp)]
                if ap not in KA.successors(a, lab):
                    return False, f"response {ap!r} is not a {lab}-successor of {a!r}"
                if KA.profile(ap) != KB.profile(bp):
                    return False, f"profiles differ at ({ap!r}, {bp!r})"
                if depth - 1 >= 1 and (ap, bp, depth - 1) not in table:
                    return False, f"strategy not closed at ({ap!r}, {bp!r})"
    return True, None


def simulation_strategy(P: PointedStructure, Q: PointedStructure, k: int,
                        cap: int = DEFAULT_CAP) -> Optional[dict[ModalPlay, str]]:
    """Extract a winning strategy for the existential (simulation) game as a
    table on unfolding plays; None if Duplicator does not win."""
    return simulation_table(P, Q, k, simulation_levels(P, Q, k), cap)


def simulation_table(P: PointedStructure, Q: PointedStructure, k: int,
                     rel: list[set[tuple[str, str]]], cap: int = DEFAULT_CAP,
                     ) -> Optional[dict[ModalPlay, str]]:
    """The strategy of `simulation_strategy`, read off relations already
    computed by `simulation_levels`."""
    KA, KB = _require_kripke_pair(P, Q)
    labels = sorted(set(KA.transitions))
    if (P.point, Q.point) not in rel[k]:
        return None
    table: dict[ModalPlay, str] = {(P.point,): Q.point}
    frontier = [((P.point,), Q.point)]
    for depth in range(k, 0, -1):
        nxt = []
        for s, b in frontier:
            for lab in labels:
                for ap in KA.successors(s[-1], lab):
                    bp = next(x for x in KB.successors(b, lab)
                              if (ap, x) in rel[depth - 1])
                    play = s + (lab, ap)
                    table[play] = bp
                    nxt.append((play, bp))
        frontier = nxt
        if len(table) > cap:
            raise CapExceeded(len(table), cap, "strategy-table entries")
    return table


def verify_simulation_certificate(cert: Mapping, P: PointedStructure,
                                  Q: PointedStructure) -> tuple[bool, Optional[str]]:
    """Replay a simulation strategy table over the depth-k unfolding of P:
    every play has a response, each response is a successor along the same
    label of the previous one, and propositions transfer forward."""
    KA, KB = _require_kripke_pair(P, Q)
    labels = sorted(set(KA.transitions))
    k = int(cert["k"])
    table = {tuple(entry["play"]): entry["response"] for entry in cert["strategy"]}
    if table.get((P.point,)) != Q.point:
        return False, "the point is not answered by the point"
    frontier: list[ModalPlay] = [(P.point,)]
    for _ in range(k + 1):
        nxt = []
        for s in frontier:
            b = table[s]
            if not KA.profile(s[-1]) <= KB.profile(b):
                return False, f"propositions of {s[-1]!r} do not hold at {b!r}"
            if len(s) == 2 * k + 1:
                continue
            for lab in labels:
                for ap in KA.successors(s[-1], lab):
                    play = s + (lab, ap)
                    if play not in table:
                        return False, f"no response recorded for play {list(play)}"
                    if table[play] not in KB.successors(b, lab):
                        return False, (f"response {table[play]!r} is not a {lab}-successor "
                                       f"of {b!r}")
                    nxt.append(play)
        frontier = nxt
    return True, None
