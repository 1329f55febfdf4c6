"""The three equivalence tiers for each game comonad.

Tier 1 asks for winning existential strategies in both directions (the two
strategies are unrelated).  Tier 2 is the back-and-forth game over a winning
set of synchronized positions.  Tier 3 is the bijection-style game.  The
per-comonad winning sets:

  ef      induced move/response pairs form a partial isomorphism
  pebble  the current pebble placements form a partial isomorphism
  modal   labels agree and proposition profiles match along the play

Round structure follows the logics characterized: rank-bounded games (ef,
modal) stop after k rounds, pebble games are unbounded.  Each comonad has
one solver for all three tiers, `SOLVERS[tag](A, B, k, tier,
build_certificate=True) -> (won, certificate or None)`: `ef.ef_game`,
`pebble.pebble_game` and `modal.modal_game`; the first two run one driver,
`strategy.PairRules.solve`.  Tier 1 is solved by game
search (ef), a greatest fixpoint over sets of pebbled pairs (pebble) or one
sweep over world pairs (modal).  Tiers 2 and 3 are equalities of types,
rank-k or k-variable FO (ef, pebble) or ML_k (modal) at tier 2 and their
counting versions at tier 3, computed by refinement on each structure
alone (`refine.Types`, `modal._refinement`).  `RULES` holds
each comonad's game rules, under which `verify_certificate` re-checks a
certificate.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from .comonad import unsuited
from .ef import EfRules, ef_game
from .modal import ModalRules, modal_game
from .pebble import PebbleRules, pebble_game
from .strategy import GAMES, exact_int, verify

RULES = {"ef": EfRules, "pebble": PebbleRules, "modal": ModalRules}
SOLVERS = {"ef": ef_game, "pebble": pebble_game, "modal": modal_game}

# Kept by name because the benchmark's tests (bench/test_bench.py) call them.
pebble_back_and_forth = partial(pebble_game, tier=2)
pebble_bijection_equiv = partial(pebble_game, tier=3)


def verify_certificate(cert, A, B) -> tuple[bool, Optional[str]]:
    """Check a certificate against A and B by its (comonad, game) stamp and
    its k (an int of at least 1), with `strategy.verify` under its comonad's
    rules.  A and B must share a signature, and be pointed for modal and
    plain for ef and pebble."""
    sa, sb = (getattr(S, "base", S).sig for S in (A, B))
    if sa != sb:
        return False, f"signatures differ: {sa.relations} vs {sb.relations}"
    if not isinstance(cert, dict):
        return False, "the certificate is not an object"
    comonad, game = cert.get("comonad"), cert.get("game")
    if comonad not in tuple(RULES) or game not in GAMES:  # by ==: any JSON value
        return False, f"unknown certificate kind {(comonad, game)}"
    if why := unsuited(comonad, "games", A, B):
        return False, why
    try:
        k = exact_int(cert.get("k"))
    except TypeError as err:
        return False, f"the certificate's k is {err}"
    if k < 1:
        return False, f"the certificate's k is {k}, below 1"
    tier = GAMES.index(game) + 1
    return verify(RULES[comonad](A, B, k, tier), tier, cert)


def decide(tag: str, tier: int, A, B, k: int) -> dict:
    """Run one equivalence decision and package the verdict.  Tier 1 plays
    the existential game from A to B, then, only if that is won, from B to A;
    its certificate holds both as "forward" and "backward"."""
    if tag not in SOLVERS:
        raise ValueError(f"unknown comonad tag {tag!r}")
    if tier not in (1, 2, 3):
        raise ValueError(f"tier must be 1, 2 or 3, got {tier}")
    if why := unsuited(tag, "games", A, B):
        raise ValueError(why)
    solve = SOLVERS[tag]
    if tier > 1:
        equiv, cert = solve(A, B, k, tier)
    else:
        equiv, forward = solve(A, B, k, 1)
        equiv, backward = solve(B, A, k, 1) if equiv else (False, None)
        cert = {"forward": forward, "backward": backward} if equiv else None
    return {"equiv": equiv, "tier": tier, "comonad": tag, "k": k, "certificate": cert}
