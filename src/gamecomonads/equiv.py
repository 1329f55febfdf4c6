"""The three equivalence tiers for each game comonad.

Tier 1 asks for winning existential strategies in both directions (the two
strategies are unrelated).  Tier 2 is the back-and-forth game over a winning
set of synchronized positions.  Tier 3 is the bijection-style game.  The
per-comonad winning sets:

  ef      induced move/response pairs form a partial isomorphism
  pebble  the current pebble placements form a partial isomorphism
  modal   labels agree and proposition profiles match along the play

Round structure follows the logics characterized: rank-bounded games (ef,
modal) stop after k rounds, pebble games are unbounded.  Tier 1 is solved by
game search (ef) or a greatest fixpoint over sets of pebbled pairs (pebble).
For ef and pebble, tiers 2 and 3 are equalities of types, rank-k or
k-variable FO at tier 2 and their counting versions at tier 3, computed by
refinement on each structure alone (`refine.Types`).  All three modal tiers
are one sweep over the world pairs reachable from the points
(`modal.modal_game`).
"""

from __future__ import annotations

from typing import Optional

from . import modal as modal_mod
from .ef import (EfRules, ef_game_exists, strategy_from_json, strategy_to_json,
                 verify_ef_strategy)
from .pebble import PebbleRules, pebble_game, pebble_game_exists
from .refine import Types
from .strategy import GAMES, certificate, verify
from .structures import Structure, require_same_signature

TAGS = ("ef", "pebble", "modal")
RULES = {"ef": EfRules, "pebble": PebbleRules, "modal": modal_mod.ModalRules}


# ---------------------------------------------------------------- tier 1

def mutual_existential(tag: str, A, B, k: int) -> tuple[bool, Optional[dict]]:
    """Existential game decisions in both directions."""
    if tag == "ef":
        fwd, cert_f = ef_game_exists(A, B, k)
        bwd, cert_b = ef_game_exists(B, A, k)
    elif tag == "pebble":
        fwd, cert_f = pebble_game_exists(A, B, k)
        bwd, cert_b = pebble_game_exists(B, A, k)
    elif tag == "modal":
        fwd, cert_f = modal_mod.modal_game(A, B, k, 1)
        bwd, cert_b = modal_mod.modal_game(B, A, k, 1)
    else:
        raise ValueError(f"unknown comonad tag {tag!r}")
    if not (fwd and bwd):
        return False, None
    if tag == "ef":
        cert_f, cert_b = strategy_to_json(cert_f), strategy_to_json(cert_b)
    return True, {"forward": cert_f, "backward": cert_b}


# ------------------------------------------------------------ tiers 2, 3

def _ef_game(A: Structure, B: Structure, k: int, tier: int,
             build_certificate: bool) -> tuple[bool, Optional[dict]]:
    """Tiers 2 and 3 by rank-k types (`refine.Types`).  Duplicator answers a
    pebbled element with its partner, and a new one with the first new
    element, in universe order, whose extension has the same type (or by a
    matching of those at tier 3)."""
    require_same_signature(A, B)
    if k < 1:
        raise ValueError("k must be >= 1")
    if tier == 3 and len(A.universe) != len(B.universe):
        return False, None
    types = Types(A, B, k, pebble=False, counting=tier == 3)
    if not types.equal or not build_certificate:
        return types.equal, None
    return True, certificate(EfRules(A, B, k, tier), tier,
                             lambda pos, _: types.same_after(sorted(pos[0]), pos[1] - 1))


def ef_back_and_forth(A: Structure, B: Structure, k: int,
                      build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
    """k-round back-and-forth game: rank-k types (`_ef_game`, tier 2)."""
    return _ef_game(A, B, k, 2, build_certificate)


def bijection_game_equiv(A: Structure, B: Structure, k: int,
                         build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
    """k-round bijection game: counting rank-k types (`_ef_game`, tier 3).
    Spoiler wins outright on a cardinality mismatch."""
    return _ef_game(A, B, k, 3, build_certificate)


def pebble_back_and_forth(A: Structure, B: Structure, k: int,
                          build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
    """Unbounded two-sided k-pebble game: k-variable types (`pebble_game`)."""
    return pebble_game(A, B, k, 2, build_certificate)


def pebble_bijection_equiv(A: Structure, B: Structure, k: int,
                           build_certificate: bool = True) -> tuple[bool, Optional[dict]]:
    """k-pebble bijection game: counting k-variable types (`pebble_game`)."""
    return pebble_game(A, B, k, 3, build_certificate)


def back_and_forth_equiv(tag: str, A, B, k: int) -> tuple[bool, Optional[dict]]:
    if tag == "ef":
        return ef_back_and_forth(A, B, k)
    if tag == "pebble":
        return pebble_back_and_forth(A, B, k)
    if tag == "modal":
        return modal_mod.modal_back_and_forth(A, B, k)
    raise ValueError(f"unknown comonad tag {tag!r}")


def verify_certificate(cert, A, B) -> tuple[bool, Optional[str]]:
    """Check a certificate against A and B by its (comonad, game) stamp: the
    ef existential play table as a coKleisli map, every other game by
    `strategy.verify` under its comonad's rules."""
    comonad, game = cert.get("comonad"), cert.get("game")
    if (comonad, game) == ("ef", "existential"):
        return verify_ef_strategy(strategy_from_json(cert, A, B))
    if comonad not in RULES or game not in GAMES:
        return False, f"unknown certificate kind {(comonad, game)}"
    tier = GAMES.index(game) + 1
    return verify(RULES[comonad](A, B, int(cert["k"]), tier), tier, cert)


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
