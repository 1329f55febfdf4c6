"""The three equivalence tiers for each game comonad.

Tier 1 asks for winning existential strategies in both directions (the two
strategies are unrelated).  Tier 2 is the back-and-forth game over a winning
set of synchronized positions.  Tier 3 is the bijection-style game.  The
per-comonad winning sets:

  ef      induced move/response pairs form a partial isomorphism
  pebble  the current pebble placements form a partial isomorphism
  modal   labels agree and proposition profiles match along the play

Round structure follows the logics characterized: rank-bounded games (ef,
modal) stop after k rounds, pebble games are unbounded and solved as greatest
fixpoints over placement positions.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Optional

from . import modal as modal_mod
from .ef import EfGame, ef_game_exists, strategy_to_json
from .matching import perfect_matching
from .pebble import (Position, _canon, pebble_bases, pebble_fixpoint, pebble_game_exists,
                     reachable_positions)
from .structures import (CapExceeded, Structure, is_partial_isomorphism,
                         require_same_signature)

TAGS = ("ef", "pebble", "modal")


# ---------------------------------------------------------------- tier 1

def mutual_existential(tag: str, A, B, k: int) -> tuple[bool, Optional[dict]]:
    """Existential game decisions in both directions."""
    if tag == "ef":
        fwd, cert_f = ef_game_exists(A, B, k)
        bwd, cert_b = ef_game_exists(B, A, k)
        return fwd and bwd, ({"forward": strategy_to_json(cert_f),
                              "backward": strategy_to_json(cert_b)} if fwd and bwd else None)
    if tag == "pebble":
        fwd, cert_f = pebble_game_exists(A, B, k)
        bwd, cert_b = pebble_game_exists(B, A, k)
        return fwd and bwd, ({"forward": cert_f, "backward": cert_b}
                             if fwd and bwd else None)
    if tag == "modal":
        fwd_rel = modal_mod.simulation_levels(A, B, k)
        bwd_rel = modal_mod.simulation_levels(B, A, k)
        equiv = (A.point, B.point) in fwd_rel[k] and (B.point, A.point) in bwd_rel[k]
        cert = None
        if equiv:
            try:
                cert = {"forward": _modal_table_json(
                            modal_mod.simulation_table(A, B, k, fwd_rel), k),
                        "backward": _modal_table_json(
                            modal_mod.simulation_table(B, A, k, bwd_rel), k)}
            except CapExceeded:
                cert = None
        return equiv, cert
    raise ValueError(f"unknown comonad tag {tag!r}")


def _modal_table_json(table, k: int) -> dict:
    return {"comonad": "modal", "game": "existential", "k": k,
            "strategy": [{"play": list(s), "response": b} for s, b in sorted(table.items())]}


# ---------------------------------------------------------------- tier 2

def ef_back_and_forth(A: Structure, B: Structure, k: int,
                      build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
    """k-round back-and-forth game (`EfGame`, tier 2)."""
    require_same_signature(A, B)
    if k < 1:
        raise ValueError("k must be >= 1")
    game = EfGame(A, B, 2)
    exists = game.win(frozenset(), k)
    if not exists or not build_certificate:
        return exists, None

    entries = []
    seen = set()
    queue = deque([(frozenset(), k)])
    while queue:
        pairs, rounds = queue.popleft()
        if (pairs, rounds) in seen or rounds == 0:
            continue
        seen.add((pairs, rounds))
        moves = []
        for side, x, y in game.answers(pairs, rounds):
            moves.append({"side": ("left", "right")[side], "element": x, "response": y})
            queue.append((pairs | {(x, y) if side == 0 else (y, x)}, rounds - 1))
        entries.append({"pairs": sorted(list(p) for p in pairs),
                        "rounds_left": rounds, "moves": moves})
    return True, {"comonad": "ef", "game": "back-and-forth", "k": k, "positions": entries}


def pebble_back_and_forth(A: Structure, B: Structure, k: int,
                          build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
    """Unbounded two-sided k-pebble game as a greatest fixpoint.

    The winning set depends only on current placements, so positions are
    multisets of pebble pairs; Spoiler may re-place any pebble on either side.
    """
    require_same_signature(A, B)
    if k < 1:
        raise ValueError("k must be >= 1")

    surviving = pebble_fixpoint(A, B, k, 2)
    exists = () in surviving
    if not exists or not build_certificate:
        return exists, None

    @lru_cache(maxsize=None)
    def respond(base: Position, side: str, x: str) -> str:
        if side == "left":
            return next(y for y in B.universe if _canon(base + ((x, y),)) in surviving)
        return next(y for y in A.universe if _canon(base + ((y, x),)) in surviving)

    def answers(base: Position) -> list[Position]:
        return ([_canon(base + ((a, respond(base, "left", a)),)) for a in A.universe]
                + [_canon(base + ((respond(base, "right", b), b),)) for b in B.universe])

    entries = []
    for pos in reachable_positions(k, answers):
        moves = []
        for base in pebble_bases(pos, k):
            keep = [list(p) for p in base]
            for side, universe in (("left", A.universe), ("right", B.universe)):
                moves.extend({"keep": keep, "side": side, "element": x,
                              "response": respond(base, side, x)} for x in universe)
        entries.append({"position": [list(p) for p in pos], "moves": moves})
    return True, {"comonad": "pebble", "game": "back-and-forth", "k": k, "positions": entries}


def back_and_forth_equiv(tag: str, A, B, k: int) -> tuple[bool, Optional[dict]]:
    if tag == "ef":
        return ef_back_and_forth(A, B, k)
    if tag == "pebble":
        return pebble_back_and_forth(A, B, k)
    if tag == "modal":
        return modal_mod.modal_back_and_forth(A, B, k)
    raise ValueError(f"unknown comonad tag {tag!r}")


# ---------------------------------------------------------------- tier 3

def bijection_game_equiv(A: Structure, B: Structure, k: int,
                         build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
    """k-round bijection game (`EfGame`, tier 3).

    Spoiler wins outright on a cardinality mismatch.  Each round Duplicator
    commits to a bijection and Spoiler picks a source element; the chosen
    pairs must stay a partial isomorphism.  A usable bijection exists iff the
    bipartite graph of recursively safe pairs has a perfect matching.
    """
    require_same_signature(A, B)
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(A.universe) != len(B.universe):
        return False, None
    game = EfGame(A, B, 3)
    exists = game.win(frozenset(), k)
    if not exists or not build_certificate:
        return exists, None

    entries = []
    seen = set()
    queue = deque([(frozenset(), k)])
    while queue:
        pairs, rounds = queue.popleft()
        if (pairs, rounds) in seen or rounds == 0:
            continue
        seen.add((pairs, rounds))
        psi = game.bijection(pairs, rounds)
        entries.append({"pairs": sorted(list(p) for p in pairs),
                        "rounds_left": rounds,
                        "bijection": sorted([a, b] for a, b in psi.items())})
        for a, b in sorted(psi.items()):
            queue.append((pairs | {(a, b)}, rounds - 1))
    return True, {"comonad": "ef", "game": "bijection", "k": k, "positions": entries}


def pebble_bijection_equiv(A: Structure, B: Structure, k: int,
                           build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
    """k-pebble bijection game, unbounded rounds, greatest fixpoint."""
    require_same_signature(A, B)
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(A.universe) != len(B.universe):
        return False, None

    surviving = pebble_fixpoint(A, B, k, 3)

    @lru_cache(maxsize=None)
    def matching_for(base: Position) -> Optional[dict]:
        return perfect_matching(A.universe, B.universe,
                                lambda a, b: _canon(base + ((a, b),)) in surviving)

    exists = () in surviving
    if not exists or not build_certificate:
        return exists, None

    def answers(base: Position) -> list[Position]:
        return [_canon(base + (pair,)) for pair in matching_for(base).items()]

    entries = [{"position": [list(p) for p in pos],
                "moves": [{"keep": [list(p) for p in base],
                           "bijection": sorted([a, b] for a, b in matching_for(base).items())}
                          for base in pebble_bases(pos, k)]}
               for pos in reachable_positions(k, answers)]
    return True, {"comonad": "pebble", "game": "bijection", "k": k, "positions": entries}


# ----------------------------------------------------- certificate checks

def verify_ef_back_and_forth_certificate(cert, A: Structure, B: Structure
                                         ) -> tuple[bool, Optional[str]]:
    """Closure and winning-set membership of a recorded two-sided strategy."""
    k = int(cert["k"])
    table = {}
    for entry in cert["positions"]:
        pairs = frozenset((a, b) for a, b in entry["pairs"])
        moves = {(m["side"], m["element"]): m["response"] for m in entry["moves"]}
        table[(tuple(sorted(pairs)), int(entry["rounds_left"]))] = (pairs, moves)
    if ((), k) not in table:
        return False, "initial position missing"
    winning = lru_cache(maxsize=None)(lambda pairs: is_partial_isomorphism(pairs, A, B))
    for (key, rounds), (pairs, moves) in sorted(table.items()):
        if not winning(pairs):
            return False, f"position {sorted(pairs)} is not a partial isomorphism"
        for side, universe in (("left", A.universe), ("right", B.universe)):
            for x in universe:
                if (side, x) not in moves:
                    return False, f"no response to {side} move {x!r} at {sorted(pairs)}"
                y = moves[(side, x)]
                new = pairs | ({(x, y)} if side == "left" else {(y, x)})
                if not winning(new):
                    return False, f"response {y!r} to {x!r} leaves the winning set"
                if rounds - 1 >= 1 and (tuple(sorted(new)), rounds - 1) not in table:
                    return False, f"strategy not closed at {sorted(new)}"
    return True, None


def verify_ef_bijection_certificate(cert, A: Structure, B: Structure
                                    ) -> tuple[bool, Optional[str]]:
    k = int(cert["k"])
    if len(A.universe) != len(B.universe):
        return False, "cardinality mismatch"
    table = {}
    for entry in cert["positions"]:
        pairs = frozenset((a, b) for a, b in entry["pairs"])
        table[(tuple(sorted(pairs)), int(entry["rounds_left"]))] = \
            (pairs, {a: b for a, b in entry["bijection"]})
    if ((), k) not in table:
        return False, "initial position missing"
    winning = lru_cache(maxsize=None)(lambda pairs: is_partial_isomorphism(pairs, A, B))
    for (key, rounds), (pairs, psi) in sorted(table.items()):
        if sorted(psi) != sorted(A.universe) or sorted(psi.values()) != sorted(B.universe):
            return False, f"map at {sorted(pairs)} is not a bijection"
        for a in A.universe:
            new = pairs | {(a, psi[a])}
            if not winning(new):
                return False, f"pair ({a!r}, {psi[a]!r}) breaks the position"
            if rounds - 1 >= 1 and (tuple(sorted(new)), rounds - 1) not in table:
                return False, f"strategy not closed at {sorted(new)}"
    return True, None


def verify_pebble_back_and_forth_certificate(cert, A: Structure, B: Structure
                                             ) -> tuple[bool, Optional[str]]:
    k = int(cert["k"])
    table = {}
    for entry in cert["positions"]:
        pos = _canon(tuple((a, b) for a, b in entry["position"]))
        moves = {(_canon(tuple((a, b) for a, b in m["keep"])), m["side"], m["element"]):
                 m["response"] for m in entry["moves"]}
        table[pos] = moves
    if () not in table:
        return False, "initial position missing"
    winning = lru_cache(maxsize=None)(lambda pos: is_partial_isomorphism(pos, A, B))
    for pos in sorted(table):
        if not winning(pos):
            return False, f"position {list(pos)} is not a partial isomorphism"
        for base in pebble_bases(pos, k):
            for side, universe in (("left", A.universe), ("right", B.universe)):
                for x in universe:
                    key = (base, side, x)
                    if key not in table[pos]:
                        return False, f"no response to {side} move {x!r} from {list(pos)}"
                    y = table[pos][key]
                    new = _canon(base + (((x, y),) if side == "left" else ((y, x),)))
                    if not winning(new):
                        return False, f"response {y!r} leaves the winning set"
                    if new not in table:
                        return False, f"strategy not closed at {list(new)}"
    return True, None


def verify_pebble_bijection_certificate(cert, A: Structure, B: Structure
                                        ) -> tuple[bool, Optional[str]]:
    k = int(cert["k"])
    if len(A.universe) != len(B.universe):
        return False, "cardinality mismatch"
    table = {}
    for entry in cert["positions"]:
        pos = _canon(tuple((a, b) for a, b in entry["position"]))
        table[pos] = {_canon(tuple((a, b) for a, b in m["keep"])):
                      {a: b for a, b in m["bijection"]} for m in entry["moves"]}
    if () not in table:
        return False, "initial position missing"
    winning = lru_cache(maxsize=None)(lambda pos: is_partial_isomorphism(pos, A, B))
    for pos in sorted(table):
        if not winning(pos):
            return False, f"position {list(pos)} is not a partial isomorphism"
        for base in pebble_bases(pos, k):
            if base not in table[pos]:
                return False, f"no bijection recorded for keep {list(base)} at {list(pos)}"
            psi = table[pos][base]
            if sorted(psi) != sorted(A.universe) or sorted(psi.values()) != sorted(B.universe):
                return False, f"map at {list(pos)} is not a bijection"
            for a in A.universe:
                new = _canon(base + ((a, psi[a]),))
                if not winning(new):
                    return False, f"pair ({a!r}, {psi[a]!r}) breaks the position"
                if new not in table:
                    return False, f"strategy not closed at {list(new)}"
    return True, None


def verify_certificate(cert, A, B) -> tuple[bool, Optional[str]]:
    """Dispatch on the certificate's (comonad, game) stamp."""
    from .ef import strategy_from_json, verify_ef_strategy
    from .modal import (verify_graded_certificate, verify_modal_bf_certificate,
                        verify_simulation_certificate)
    from .pebble import verify_pebble_strategy
    kind = (cert.get("comonad"), cert.get("game"))
    if kind == ("ef", "existential"):
        return verify_ef_strategy(strategy_from_json(cert, A, B))
    if kind == ("ef", "back-and-forth"):
        return verify_ef_back_and_forth_certificate(cert, A, B)
    if kind == ("ef", "bijection"):
        return verify_ef_bijection_certificate(cert, A, B)
    if kind == ("pebble", "existential"):
        return verify_pebble_strategy(cert, A, B)
    if kind == ("pebble", "back-and-forth"):
        return verify_pebble_back_and_forth_certificate(cert, A, B)
    if kind == ("pebble", "bijection"):
        return verify_pebble_bijection_certificate(cert, A, B)
    if kind == ("modal", "existential"):
        return verify_simulation_certificate(cert, A, B)
    if kind == ("modal", "back-and-forth"):
        return verify_modal_bf_certificate(cert, A, B)
    if kind == ("modal", "graded-bisimulation"):
        return verify_graded_certificate(cert, A, B)
    return False, f"unknown certificate kind {kind}"


# ---------------------------------------------------------------- driver

def decide(tag: str, tier: int, A, B, k: int) -> dict:
    """Run one equivalence decision and package the verdict."""
    if tag not in TAGS:
        raise ValueError(f"unknown comonad tag {tag!r}")
    if tier == 1:
        equiv, cert = mutual_existential(tag, A, B, k)
    elif tier == 2:
        equiv, cert = back_and_forth_equiv(tag, A, B, k)
    elif tier == 3:
        if tag == "ef":
            equiv, cert = bijection_game_equiv(A, B, k)
        elif tag == "pebble":
            equiv, cert = pebble_bijection_equiv(A, B, k)
        else:
            equiv, cert = modal_mod.graded_bisim_game(A, B, k)
    else:
        raise ValueError(f"tier must be 1, 2 or 3, got {tier}")
    return {"equiv": equiv, "tier": tier, "comonad": tag, "k": k, "certificate": cert}
