"""Coalgebras for the three comonads and the combinatorial parameters.

A coalgebra assigns to every element a play that ends at it, is closed under
prefixes (the play of each intermediate element is the corresponding prefix),
and is a homomorphism into the play structure.  Such maps correspond exactly
to forest covers (rank comonad), pebbled forest covers (pebbling comonad) and
synchronization-tree unfoldings (modal comonad); the least resource index
admitting one is tree-depth, tree-width + 1, and modal depth respectively.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .decomposition import (ForestCover, PebbledForestCover,
                            decomposition_to_pebble_cover, tree_depth, tree_width,
                            verify_pebbled_forest_cover)
from .ef import EfPlay
from .modal import ModalPlay, view_of
from .pebble import PebblePlay, pebble_relation_holds
from .structures import PointedStructure, Structure, gaifman_graph

EfCoalgebra = dict[str, EfPlay]
PebbleCoalgebra = dict[str, PebblePlay]
ModalCoalgebra = dict[str, ModalPlay]


def _comparable(s: tuple, t: tuple) -> bool:
    return s[:len(t)] == t or t[:len(s)] == s


def verify_coalgebra(tag: str, A, k: int, alpha: Mapping) -> tuple[bool, Optional[str]]:
    """Check the counit law, the prefix (comultiplication) law, and the
    homomorphism condition; reports the first failure."""
    if tag == "ef":
        return _verify_ef(A, k, alpha)
    if tag == "pebble":
        return _verify_pebble(A, k, alpha)
    if tag == "modal":
        return _verify_modal(A, k, alpha)
    raise ValueError(f"unknown comonad tag {tag!r}")


def _verify_ef(A: Structure, k: int, alpha: Mapping[str, EfPlay]) -> tuple[bool, Optional[str]]:
    for a in A.universe:
        if a not in alpha:
            return False, f"coalgebra undefined on {a!r}"
        s = tuple(alpha[a])
        if not (1 <= len(s) <= k):
            return False, f"play of {a!r} has length {len(s)}, not in 1..{k}"
        if any(x not in A.universe for x in s):
            return False, f"play of {a!r} leaves the universe"
        if s[-1] != a:
            return False, f"counit law fails at {a!r}: play ends at {s[-1]!r}"
        for i in range(1, len(s) + 1):
            if tuple(alpha.get(s[i - 1], ())) != s[:i]:
                return False, (f"comultiplication law fails at {a!r}: "
                               f"play of {s[i - 1]!r} is not the prefix of length {i}")
    for name, tups in A.relations.items():
        for t in sorted(tups):
            plays = [tuple(alpha[x]) for x in t]
            for s in plays:
                for u in plays:
                    if not _comparable(s, u):
                        return False, (f"homomorphism condition fails on {name}{t}: "
                                       "plays are not prefix-comparable")
    return True, None


def _verify_pebble(A: Structure, k: int, alpha: Mapping[str, PebblePlay]) -> tuple[bool, Optional[str]]:
    for a in A.universe:
        if a not in alpha:
            return False, f"coalgebra undefined on {a!r}"
        s = tuple((int(p), x) for p, x in alpha[a])
        if len(s) < 1:
            return False, f"play of {a!r} is empty"
        if any(not (1 <= p <= k) for p, _ in s):
            return False, f"play of {a!r} uses a pebble outside 1..{k}"
        if any(x not in A.universe for _, x in s):
            return False, f"play of {a!r} leaves the universe"
        if s[-1][1] != a:
            return False, f"counit law fails at {a!r}: play ends at {s[-1][1]!r}"
        for i in range(1, len(s) + 1):
            x = s[i - 1][1]
            if tuple((int(p), y) for p, y in alpha.get(x, ())) != s[:i]:
                return False, (f"comultiplication law fails at {a!r}: "
                               f"play of {x!r} is not the prefix of length {i}")
    for name, tups in A.relations.items():
        for t in sorted(tups):
            plays = [tuple((int(p), x) for p, x in alpha[y]) for y in t]
            if not pebble_relation_holds(name, plays, A):
                return False, f"homomorphism condition fails on {name}{t}"
    return True, None


def _verify_modal(P: PointedStructure, k: int, alpha: Mapping[str, ModalPlay]) -> tuple[bool, Optional[str]]:
    K = view_of(P.base)
    A = P.base
    for a in A.universe:
        if a not in alpha:
            return False, f"coalgebra undefined on {a!r}"
        s = tuple(alpha[a])
        if len(s) % 2 != 1 or (len(s) - 1) // 2 > k:
            return False, f"play of {a!r} is malformed or longer than depth {k}"
        if s[0] != P.point:
            return False, f"play of {a!r} does not start at the point"
        if s[-1] != a:
            return False, f"counit law fails at {a!r}: play ends at {s[-1]!r}"
        for i in range(1, len(s), 2):
            label, tgt = s[i], s[i + 1]
            if label not in K.transitions or (s[i - 1], tgt) not in K.transitions[label]:
                return False, f"play of {a!r} uses a missing transition {s[i - 1]!r} -{label}-> {tgt!r}"
        for i in range(0, len(s), 2):
            if tuple(alpha.get(s[i], ())) != s[:i + 1]:
                return False, (f"comultiplication law fails at {a!r}: "
                               f"play of {s[i]!r} is not the prefix through it")
    if tuple(alpha[P.point]) != (P.point,):
        return False, "the point must be sent to the one-step play at itself"
    for label, edges in K.transitions.items():
        for (a, b) in sorted(edges):
            if tuple(alpha[b]) != tuple(alpha[a]) + (label, b):
                return False, (f"homomorphism condition fails on {label}({a!r},{b!r}): "
                               "target play does not extend source play by this step")
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
    ok, msg = _verify_ef(A, k, alpha)
    if not ok:
        raise ValueError(f"not a coalgebra: {msg}")
    parent = {}
    for a in A.universe:
        s = tuple(alpha[a])
        parent[a] = s[-2] if len(s) >= 2 else None
    return ForestCover(parent)


def pebbled_cover_to_coalgebra(C: PebbledForestCover) -> PebbleCoalgebra:
    return {v: tuple((C.pebbles[w], w) for w in C.cover.chain(v))
            for v in sorted(C.cover.parent)}


def pebble_coalgebra_to_cover(A: Structure, k: int,
                              alpha: Mapping[str, PebblePlay]) -> PebbledForestCover:
    ok, msg = _verify_pebble(A, k, alpha)
    if not ok:
        raise ValueError(f"not a coalgebra: {msg}")
    parent = {}
    pebbles = {}
    for a in A.universe:
        s = tuple((int(p), x) for p, x in alpha[a])
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


def _unfold(P: PointedStructure) -> tuple[Optional[int], ModalCoalgebra]:
    """One breadth-first walk from the point: each reachable world with its
    first path (labels in sorted order, successors in world order), and the
    height of the generated submodel when it is a synchronization tree, else
    None."""
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
        return None, paths
    return max(len(s) // 2 for s in paths.values()), paths


def modal_depth(P: PointedStructure) -> Optional[int]:
    """Height of the generated submodel when it is a synchronization tree.

    Returns None when some reachable world has more than one incoming path,
    in which case no unfolding depth admits a coalgebra at all.  A height of
    0 (no outgoing transitions) still admits a coalgebra at depth 1.
    """
    return _unfold(P)[0]


def modal_coalgebra(P: PointedStructure, k: int) -> Optional[ModalCoalgebra]:
    """The coalgebra sending each world to its unique path, if heights allow.

    Worlds outside the generated submodel have no path from the point, so a
    coalgebra exists only when everything is reachable.
    """
    height, alpha = _unfold(P)
    if height is None or max(height, 1) > k or len(alpha) != len(P.base.universe):
        return None
    return alpha


def modal_coalgebra_number(P: PointedStructure) -> Optional[int]:
    """Least depth admitting a coalgebra: max(height, 1), or None."""
    height, alpha = _unfold(P)
    if height is None or len(alpha) != len(P.base.universe):
        return None
    return max(height, 1)


def construct_coalgebra(tag: str, A, k: int) -> Optional[dict]:
    """Build a coalgebra at resource index k if one exists, else None."""
    if tag == "ef":
        depth, cover = tree_depth(A)
        if depth > k:
            return None
        return {a: list(s) for a, s in forest_cover_to_ef_coalgebra(cover, k).items()}
    if tag == "pebble":
        width, T = tree_width(A)
        if width + 1 > k:
            return None
        cover = decomposition_to_pebble_cover(T, k)
        return {a: [[p, x] for p, x in s]
                for a, s in pebbled_cover_to_coalgebra(cover).items()}
    if tag == "modal":
        alpha = modal_coalgebra(A, k)
        if alpha is None:
            return None
        return {a: list(s) for a, s in alpha.items()}
    raise ValueError(f"unknown comonad tag {tag!r}")
