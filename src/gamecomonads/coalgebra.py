"""Coalgebras for the three comonads and the combinatorial parameters.

A coalgebra assigns to every element a play that ends at it, is closed under
prefixes (the play of each intermediate element is the corresponding prefix),
and is a homomorphism into the play structure.  Such maps correspond exactly
to forest covers (rank comonad), pebbled forest covers (pebbling comonad) and
synchronization-tree unfoldings (modal comonad); the least resource index
admitting one is tree-depth, tree-width + 1, and modal depth respectively.
"""

from __future__ import annotations

import json
from typing import Mapping, Optional

from .comonad import play_id
from .decomposition import (ForestCover, PebbledForestCover,
                            decomposition_to_pebble_cover, tree_depth, tree_width,
                            verify_pebbled_forest_cover)
from .ef import EF, EfPlay
from .modal import MODAL, ModalPlay, view_of
from .pebble import PEBBLE, PebblePlay
from .structures import PointedStructure, Structure, gaifman_graph

EfCoalgebra = dict[str, EfPlay]
PebbleCoalgebra = dict[str, PebblePlay]
ModalCoalgebra = dict[str, ModalPlay]

COMONADS = {"ef": EF, "pebble": PEBBLE, "modal": MODAL}


def verify_coalgebra(tag: str, A, k: int, alpha: Mapping) -> tuple[bool, Optional[str]]:
    """Check that alpha, element -> play, is a coalgebra of the comonad tag
    at index k (A pointed for modal); reports the first failure.

    Every element must have a play over A at index k that ends at it (the
    counit law), and the play of the element before its last step must be
    its play without that step (the comultiplication law; by induction on
    length, every prefix of a play is then the play of the element it ends
    at).  The plays of every tuple of a relation must be in the lifted
    relation (alpha is a homomorphism into the play structure).
    """
    if tag not in COMONADS:
        raise ValueError(f"unknown comonad tag {tag!r}")
    R = COMONADS[tag]
    S = A.base if isinstance(A, PointedStructure) else A
    for a in S.universe:
        if a not in alpha:
            return False, f"coalgebra undefined on {a!r}"
        s = alpha[a]
        why = R.malformed(A, k, s)
        if why is not None:
            return False, f"play of {a!r} {why}"
        end = R.counit(s)
        if end != a:
            return False, f"counit law fails at {a!r}: play ends at {end!r}"
        p = R.before(s)
        if p is not None and alpha.get(R.counit(p)) != p:
            return False, (f"comultiplication law fails at {a!r}: play of "
                           f"{R.counit(p)!r} is not the play of {a!r} without its last step")
    # the plays of t end at t, so they are in the lifted relation iff they
    # meet the comonad's condition
    for name, tups in S.relations.items():
        for t in sorted(tups):
            why = R.unrelated(name, [alpha[x] for x in t])
            if why is not None:
                return False, f"homomorphism condition fails on {name}{t}: {why}"
    return True, None


# ---------------------------------------------------- covers <-> coalgebras

def forest_cover_to_ef_coalgebra(F: ForestCover, k: int) -> EfCoalgebra:
    """Send each element to its predecessor chain, read as a play."""
    alpha = {v: tuple(F.chain(v)) for v in sorted(F.parent)}
    height = max(len(s) for s in alpha.values())
    if height > k:
        raise ValueError(f"cover height {height} exceeds k={k}")
    return alpha


def ef_coalgebra_to_forest_cover(A: Structure, k: int, alpha: Mapping[str, EfPlay]) -> ForestCover:
    """Order elements by prefix order of their plays; inverse of the above."""
    ok, msg = verify_coalgebra("ef", A, k, alpha)
    if not ok:
        raise ValueError(f"not a coalgebra: {msg}")
    parent = {}
    for a in A.universe:
        s = alpha[a]
        parent[a] = s[-2] if len(s) >= 2 else None
    return ForestCover(parent)


def pebbled_cover_to_coalgebra(C: PebbledForestCover) -> PebbleCoalgebra:
    return {v: tuple((C.pebbles[w], w) for w in C.cover.chain(v))
            for v in sorted(C.cover.parent)}


def pebble_coalgebra_to_cover(A: Structure, k: int,
                              alpha: Mapping[str, PebblePlay]) -> PebbledForestCover:
    ok, msg = verify_coalgebra("pebble", A, k, alpha)
    if not ok:
        raise ValueError(f"not a coalgebra: {msg}")
    parent = {}
    pebbles = {}
    for a in A.universe:
        s = alpha[a]
        parent[a] = s[-2][1] if len(s) >= 2 else None
        pebbles[a] = s[-1][0]
    return PebbledForestCover(ForestCover(parent), pebbles, k)


def ef_to_pebble_play(s: EfPlay) -> PebblePlay:
    """The comonad translation: pair each element with its position index."""
    return tuple((i + 1, a) for i, a in enumerate(s))


def ef_to_pebble_coalgebra(alpha: Mapping[str, EfPlay]) -> PebbleCoalgebra:
    return {a: ef_to_pebble_play(tuple(s)) for a, s in alpha.items()}


# ------------------------------------------------------- parameter solvers

def ef_coalgebra_number(A: Structure) -> tuple[int, EfCoalgebra]:
    """Least rank admitting a coalgebra; equals the tree-depth."""
    depth, cover = tree_depth(A)
    return depth, forest_cover_to_ef_coalgebra(cover, depth)


def pebble_coalgebra_number(A: Structure) -> tuple[int, PebbledForestCover]:
    """Least pebble count admitting a coalgebra; equals tree-width + 1.

    The witness cover is built from an optimal decomposition and re-verified,
    as is the induced coalgebra.
    """
    width, T = tree_width(A)
    k = width + 1
    cover = decomposition_to_pebble_cover(T, k)
    G = gaifman_graph(A)
    ok, msg = verify_pebbled_forest_cover(cover, G, k)
    if not ok:
        raise AssertionError(f"constructed cover failed verification: {msg}")
    ok, msg = verify_coalgebra("pebble", A, k, pebbled_cover_to_coalgebra(cover))
    if not ok:
        raise AssertionError(f"induced coalgebra failed verification: {msg}")
    return k, cover


def modal_parameters(P: PointedStructure) -> tuple[Optional[int], Optional[int],
                                                   Optional[ModalCoalgebra]]:
    """Modal depth, coalgebra number and a least-depth coalgebra, from one
    breadth-first walk that gives each reachable world its first path
    (labels in sorted order, successors in world order).

    The depth is the height of the generated submodel, or None unless it is a
    synchronization tree (then no depth admits a coalgebra).  The coalgebra,
    each world to its unique path, needs every world reachable; its number is
    max(height, 1).  Otherwise number and coalgebra are None.
    """
    K = view_of(P.base)
    paths: ModalCoalgebra = {P.point: (P.point,)}
    queue = [P.point]
    while queue:
        w = queue.pop(0)
        for label in sorted(K.transitions):
            for v in K.successors(w, label):
                if v not in paths:
                    paths[v] = paths[w] + (label, v)
                    queue.append(v)
    indeg = {w: 0 for w in paths}
    for label, edges in K.transitions.items():
        for (u, v) in edges:
            if u in paths and v in paths:
                indeg[v] += 1
    if indeg[P.point] != 0 or any(indeg[w] != 1 for w in paths if w != P.point):
        return None, None, None
    height = max(len(s) // 2 for s in paths.values())
    if len(paths) != len(P.base.universe):
        return height, None, None
    return height, max(height, 1), paths


def modal_depth(P: PointedStructure) -> Optional[int]:
    """Height of the generated submodel when it is a synchronization tree, else None."""
    return modal_parameters(P)[0]


def modal_coalgebra(P: PointedStructure, k: int) -> Optional[ModalCoalgebra]:
    """The coalgebra sending each world to its unique path, if one exists at depth k."""
    _, kappa, alpha = modal_parameters(P)
    return alpha if kappa is not None and kappa <= k else None


def modal_coalgebra_number(P: PointedStructure) -> Optional[int]:
    """Least depth admitting a coalgebra: max(height, 1), or None."""
    return modal_parameters(P)[1]


def _ef_coalgebra(A: Structure, k: int) -> Optional[EfCoalgebra]:
    depth, cover = tree_depth(A)
    return forest_cover_to_ef_coalgebra(cover, k) if depth <= k else None


def _pebble_coalgebra(A: Structure, k: int) -> Optional[PebbleCoalgebra]:
    width, T = tree_width(A)
    if width + 1 > k:
        return None
    return pebbled_cover_to_coalgebra(decomposition_to_pebble_cover(T, k))


# tag -> a coalgebra at index k, from an optimal decomposition, or None
_CONSTRUCT = {"ef": _ef_coalgebra, "pebble": _pebble_coalgebra, "modal": modal_coalgebra}


def construct_coalgebra(tag: str, A, k: int) -> Optional[dict]:
    """Build a coalgebra at resource index k if one exists, else None; the
    plays are written in their JSON form (`read_coalgebra` reads them)."""
    if tag not in COMONADS:
        raise ValueError(f"unknown comonad tag {tag!r}")
    alpha = _CONSTRUCT[tag](A, k)
    return None if alpha is None else {a: json.loads(play_id(s)) for a, s in alpha.items()}


def read_coalgebra(tag: str, raw: Mapping) -> dict:
    """alpha with each play read from its JSON form by the comonad's reader;
    raises ValueError on a play that is not one."""
    return {a: COMONADS[tag].read(s) for a, s in raw.items()}
