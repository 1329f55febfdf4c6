"""The shape the three comonads share, and what is built from it once.

Each comonad (`ef.EF`, `pebble.PEBBLE`, `modal.MODAL`) sends a structure A
to a structure of plays over A, and is given here as one `Comonad` record: a
play without its last step (and so the prefixes of a play), the counit (a
play's last element), the coextension (a map on plays replayed prefix by
prefix), the relations lifted to plays, the checks that a play is one of the
comonad's, and how a play is read from JSON.  `play_structure` builds the
structure of plays for every comonad, and `coalgebra.verify_coalgebra`
checks a coalgebra of any of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional, Sequence

from .structures import PointedStructure, Structure, validate_structure

# A bound on the plays that `ef_plays`, `pebble_plays` and `modal_plays`
# enumerate, so that a play structure is never built past it.
DEFAULT_CAP = 200_000

Play = tuple


@dataclass(frozen=True)
class Comonad:
    """One comonad on plays.

    `before(s)`: s without its last step, or None if s has one step.
    `counit(s)`: the element s ends at.  `coextend(f, s)`: f applied to each
    prefix of s, as a play over f's targets.  `unrelated(name, plays)`: why
    the plays break the comonad's own condition on a tuple of the lifted
    relation `name`, or None (see `lifted`), for plays that are prefixes
    of one play or a coalgebra's.  `malformed(A, k)`: `why(s, whole)`, why
    s is not a play over A at resource index k, or None; with whole false
    (for an s that is a play once its last move is dropped) it reads only
    the length, start and last move of s.  `read(raw)`: the play written
    as the JSON value raw; raises ValueError if raw is not one.
    """

    before: Callable[[Play], Optional[Play]]
    counit: Callable[[Play], str]
    coextend: Callable[[Callable[[Play], str], Play], Play]
    unrelated: Callable[[str, Sequence[Play]], Optional[str]]
    malformed: Callable[..., Callable[[Play, bool], Optional[str]]]
    read: Callable[[object], Play]

    def lifted(self, name: str, plays: Sequence[Play], A: Structure) -> Optional[str]:
        """Why plays are not a tuple of the lifted relation name, or None if
        they are: name holds in A of the elements they end at, and they meet
        the comonad's condition.  The plays must be prefixes of one play or
        plays of one coalgebra (see `unrelated`)."""
        if tuple(map(self.counit, plays)) not in A.relations[name]:
            return f"{name} does not hold of the elements the plays end at"
        return self.unrelated(name, plays)

    def prefixes(self, s: Play) -> list:
        """The plays of which s is made, shortest first and ending with s."""
        out = [s]
        while (s := self.before(s)) is not None:
            out.append(s)
        return out[::-1]

    def of_id(self, pid: str) -> Play:
        """The play with id pid (see `play_id`)."""
        return self.read(json.loads(pid))


def unsuited(tag: str, what: str, *structures) -> Optional[str]:
    """Why the structures cannot carry comonad tag's `what` (modal needs
    pointed ones, ef and pebble plain ones), or None."""
    pointed = tag == "modal"
    if all(isinstance(S, PointedStructure) == pointed for S in structures):
        return None
    return f"the {tag} {what} need {('plain', 'pointed')[pointed]} structures"


def play_id(s: Play) -> str:
    """Stable string id for a play, used as an element of a play structure."""
    return json.dumps(s, separators=(",", ":"))


def drop_move(s: Play) -> Optional[Play]:
    """s without its last move, for plays of single moves."""
    return s[:-1] if len(s) > 1 else None


def comparable(plays: Sequence[Play]) -> bool:
    """Whether the plays are pairwise prefix-comparable."""
    return all(s[:len(t)] == t or t[:len(s)] == s for s in plays for t in plays)


def _element(x) -> Optional[str]:
    return x if isinstance(x, str) else None


def read_list(raw, what: str, item: Callable[[object], object] = _element) -> Play:
    """The tuple of item(x) for x in raw, which must be a JSON list; item
    returns None on an entry that is not one of `what` (by default, elements
    are strings)."""
    if isinstance(raw, list):
        out = tuple(map(item, raw))
        if None not in out:
            return out
    raise ValueError(f"a play must be a list of {what}, got {raw!r}")


def play_structure(comonad: Comonad, A, plays: Sequence[Play]):
    """The substructure of A's play structure on plays, a list closed under
    prefixes (A pointed: pointed at the play of its point alone).

    Plays become elements (see `play_id`); a relation holds of a tuple of
    plays iff they are in the lifted relation (`Comonad.lifted`).  Related
    plays are prefixes of their longest one, so each play s is paired with
    the tuples of its prefixes that use it.
    """
    base = A.base if isinstance(A, PointedStructure) else A
    interp: dict[str, list[list[str]]] = {}
    for name, ar in base.sig.relations.items():
        rows = []
        for s in plays:
            for combo in product(comonad.prefixes(s), repeat=ar):
                if s in combo and comonad.lifted(name, combo, base) is None:
                    rows.append([play_id(c) for c in combo])
        interp[name] = rows
    S = validate_structure(dict(base.sig.relations), [play_id(s) for s in plays], interp)
    return PointedStructure(S, play_id((A.point,))) if isinstance(A, PointedStructure) else S
