"""Finite relational structures: validation, homomorphisms, Gaifman graphs.

Element ids are strings and universes keep insertion order, so search and
serialized output are deterministic.  All objects are treated as immutable
after validation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence


class StructureError(ValueError):
    """A structure description violates an invariant."""


class SignatureMismatch(StructureError):
    """Two structures that should share a signature do not."""


class CapExceeded(RuntimeError):
    """A computation would exceed its size cap; `what` names the things
    counted, such as plays, tuples or positions."""

    def __init__(self, required: int, cap: int, what: str):
        super().__init__(f"size cap exceeded: would need {required} {what}, cap is {cap}")
        self.required = required
        self.cap = cap


class BoundExceeded(RuntimeError):
    """Input is larger than the practical bound of an exact solver."""


@dataclass
class Signature:
    """Relation names mapped to arities (>= 1)."""

    relations: dict[str, int]

    def __eq__(self, other):
        return isinstance(other, Signature) and self.relations == other.relations

    def arity(self, name: str) -> int:
        return self.relations[name]


@dataclass
class Structure:
    """A finite structure: signature, ordered universe, relation interpretations."""

    sig: Signature
    universe: tuple[str, ...]
    relations: dict[str, frozenset[tuple[str, ...]]]


@dataclass
class PointedStructure:
    """A structure with a distinguished element (Kripke-style usage)."""

    base: Structure
    point: str


@dataclass
class Graph:
    """Simple undirected graph: symmetric, irreflexive adjacency."""

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]  # canonical order: by vertex position

    def adjacent(self, u: str, v: str) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges

    def neighbors(self, v: str) -> tuple[str, ...]:
        """Neighbors of v, in vertex order."""
        return self._adjacency.get(v, ())

    @cached_property
    def _adjacency(self) -> dict[str, tuple[str, ...]]:
        pos = {v: i for i, v in enumerate(self.vertices)}
        near: dict[str, set[str]] = {v: set() for v in self.vertices}
        for (u, v) in self.edges:
            near[u].add(v)
            near[v].add(u)
        return {v: tuple(sorted(ws, key=pos.__getitem__)) for v, ws in near.items()}


def validate_structure(sig: Mapping[str, int],
                       universe: Sequence[str],
                       relations: Mapping[str, Iterable[Sequence[str]]]) -> Structure:
    """Check all structure invariants; raise StructureError naming the first violation.

    Relations missing from `relations` get an empty interpretation.  Relation
    names not declared in the signature are rejected.
    """
    if not universe:
        raise StructureError("empty universe")
    seen = set()
    for e in universe:
        if not isinstance(e, str) or not e:
            raise StructureError(f"bad element id {e!r}")
        if e in seen:
            raise StructureError(f"duplicate element {e!r} in universe")
        seen.add(e)
    for name, ar in sig.items():
        if not isinstance(name, str) or not name:
            raise StructureError(f"bad relation name {name!r}")
        if not isinstance(ar, int) or ar < 1:
            raise StructureError(f"arity of {name} must be an integer >= 1, got {ar!r}")
    interp: dict[str, frozenset[tuple[str, ...]]] = {}
    for name in relations:
        if name not in sig:
            raise StructureError(f"relation {name} not declared in signature")
    for name in sig:
        ar = sig[name]
        tups = set()
        for t in relations.get(name, ()):
            t = tuple(t)
            if len(t) != ar:
                raise StructureError(
                    f"arity mismatch in {name}: tuple {list(t)} has length {len(t)}, expected {ar}")
            for x in t:
                if x not in seen:
                    raise StructureError(f"unknown element {x!r} in relation {name}")
            tups.add(t)
        interp[name] = frozenset(tups)
    return Structure(Signature(dict(sig)), tuple(universe), interp)


def structure_from_dict(data: Mapping) -> Structure | PointedStructure:
    """Parse the shared JSON object format; unknown fields are rejected."""
    allowed = {"signature", "universe", "relations", "point"}
    extra = set(data) - allowed
    if extra:
        raise StructureError(f"unknown field {sorted(extra)[0]!r} in structure description")
    for key in ("signature", "universe", "relations"):
        if key not in data:
            raise StructureError(f"missing field {key!r}")
    A = validate_structure(data["signature"], data["universe"], data["relations"])
    if "point" in data:
        point = data["point"]
        if point not in A.universe:
            raise StructureError(f"point {point!r} not in universe")
        return PointedStructure(A, point)
    return A


def structure_to_dict(A: Structure | PointedStructure) -> dict:
    if isinstance(A, PointedStructure):
        d = structure_to_dict(A.base)
        d["point"] = A.point
        return d
    return {
        "signature": dict(A.sig.relations),
        "universe": list(A.universe),
        "relations": {name: sorted(list(t) for t in tups)
                      for name, tups in A.relations.items()},
    }


def load_structure_file(path: str) -> Structure | PointedStructure:
    with open(path, encoding="utf-8") as fh:
        def no_dup_keys(pairs):
            keys = [k for k, _ in pairs]
            if len(keys) != len(set(keys)):
                dup = next(k for k in keys if keys.count(k) > 1)
                raise StructureError(f"duplicate key {dup!r}")
            return dict(pairs)
        data = json.load(fh, object_pairs_hook=no_dup_keys)
    if not isinstance(data, dict):
        raise StructureError("structure file must contain a JSON object")
    return structure_from_dict(data)


def require_same_signature(A: Structure, B: Structure) -> None:
    if A.sig != B.sig:
        raise SignatureMismatch(f"signatures differ: {A.sig.relations} vs {B.sig.relations}")


def gaifman_graph(A: Structure) -> Graph:
    """Vertices are the universe; distinct elements sharing a tuple are adjacent."""
    pos = {e: i for i, e in enumerate(A.universe)}
    edges = set()
    for tups in A.relations.values():
        for t in tups:
            for x in t:
                for y in t:
                    if x != y:
                        edges.add((x, y) if pos[x] < pos[y] else (y, x))
    return Graph(A.universe, frozenset(edges))


def is_homomorphism(h: Mapping[str, str], A: Structure, B: Structure) -> bool:
    require_same_signature(A, B)
    for a in A.universe:
        if a not in h or h[a] not in B.universe:
            return False
    for name, tups in A.relations.items():
        target = B.relations[name]
        for t in tups:
            if tuple(h[x] for x in t) not in target:
                return False
    return True


def is_partial_homomorphism(pairs: Iterable[tuple[str, str]],
                            A: Structure, B: Structure, new: Optional[tuple] = None) -> bool:
    """Functional and relation-preserving on its domain (one direction only).
    Only the tuples through the domain are read (`occurrences`); with
    `new=(a, b)`, one of the pairs, the others are promised to be a partial
    homomorphism and only the tuples through a are read."""
    m: dict[str, str] = {}
    for a, b in pairs:
        if a in m and m[a] != b:
            return False
        m[a] = b
    return _preserved(m, A, B, new and new[0])


def is_partial_isomorphism(pairs: Iterable[tuple[str, str]],
                           A: Structure, B: Structure, new: Optional[tuple] = None) -> bool:
    """Functional, injective, and relation-reflecting in both directions;
    `new` as above, reading the tuples through a in A and through b in B."""
    fwd: dict[str, str] = {}
    bwd: dict[str, str] = {}
    for a, b in pairs:
        if a in fwd and fwd[a] != b:
            return False
        if b in bwd and bwd[b] != a:
            return False
        fwd[a] = b
        bwd[b] = a
    return _preserved(fwd, A, B, new and new[0]) and _preserved(bwd, B, A, new and new[1])


def _preserved(m: Mapping[str, str], A: Structure, B: Structure, through: Optional[str]) -> bool:
    """Whether m maps into B every tuple of A (through `through`, if given)
    whose elements it all maps."""
    occ, rel = occurrences(A), B.relations
    for a in m if through is None else (through,):
        for name, t in occ.get(a, ()):
            if all(map(m.__contains__, t)) and tuple(map(m.__getitem__, t)) not in rel[name]:
                return False
    return True


def occurrences(A: Structure) -> dict[str, list[tuple[str, tuple[str, ...]]]]:
    """Element -> (relation name, tuple) for every tuple the element occurs in.

    Built on first use and then kept on A (structures are not changed after
    validation), so callers must not change it."""
    if "_occurrences" not in vars(A):
        occ: dict[str, list[tuple[str, tuple[str, ...]]]] = {a: [] for a in A.universe}
        for name, tups in A.relations.items():
            for t in tups:
                for x in set(t):
                    occ[x].append((name, t))
        vars(A)["_occurrences"] = occ
    return vars(A)["_occurrences"]


def extensions(occ: Sequence[tuple[str, tuple[str, ...]]], m: Mapping[str, str], x: str,
               ys: tuple[str, ...], target: Mapping[str, frozenset[tuple[str, ...]]]
               ) -> tuple[str, ...]:
    """The ys y for which m extended by x -> y maps into target every tuple of
    occ whose elements other than x m already maps.

    occ is a list of (relation name, tuple) through x, such as
    `occurrences(A)[x]`, and x is unmapped by m.  If m preserves every tuple
    it maps in full, the ys returned are those that keep it so: tuples that
    avoid x were checked before, so only tuples through the new pair are
    looked at.  The closed tuples are collected once for all the ys.
    """
    closed = [(target[name], t) for name, t in occ if all(z == x or z in m for z in t)]
    if not closed:
        return ys
    return tuple(y for y in ys
                 if all(tuple([y if z == x else m[z] for z in t]) in rel for rel, t in closed))


def find_homomorphism(A: Structure, B: Structure,
                      pre: Optional[Mapping[str, str]] = None) -> Optional[dict[str, str]]:
    """Backtracking search with forward checking over the relation constraints.

    Variables are taken in universe order, candidate values in universe order,
    so the returned homomorphism is deterministic.  `pre` pins assignments
    (used for pointed homomorphism search).
    """
    require_same_signature(A, B)
    variables = list(A.universe)
    occurs = occurrences(A)
    rank = {b: i for i, b in enumerate(B.universe)}

    domains: dict[str, list[str]] = {}
    for a in variables:
        if pre and a in pre:
            if pre[a] not in B.universe:
                return None
            domains[a] = [pre[a]]
        else:
            domains[a] = list(B.universe)

    assignment: dict[str, str] = {}

    def tuple_consistent(name: str, t: tuple[str, ...]) -> bool:
        # check only when fully assigned
        if all(x in assignment for x in t):
            return tuple(assignment[x] for x in t) in B.relations[name]
        return True

    def prune(var: str) -> Optional[list[tuple[str, str]]]:
        """Forward-check tuples with exactly one unassigned component; return
        removed (element, value) pairs, or None on a domain wipe-out."""
        removed: list[tuple[str, str]] = []
        for name, t in occurs[var]:
            unassigned = [x for x in set(t) if x not in assignment]
            if len(unassigned) != 1:
                continue
            u = unassigned[0]
            target = B.relations[name]
            keep = []
            for val in domains[u]:
                image = tuple(assignment[x] if x in assignment else val for x in t)
                if image in target:
                    keep.append(val)
                else:
                    removed.append((u, val))
            if not keep:
                _restore(domains, removed, rank)
                return None
            domains[u] = keep
        return removed

    def search(i: int) -> bool:
        if i == len(variables):
            return True
        var = variables[i]
        for val in list(domains[var]):
            assignment[var] = val
            if all(tuple_consistent(name, t) for name, t in occurs[var]):
                removed = prune(var)
                if removed is not None:
                    if search(i + 1):
                        return True
                    _restore(domains, removed, rank)
            del assignment[var]
        return False

    if search(0):
        return dict(assignment)
    return None


def _restore(domains: dict[str, list[str]], removed: list[tuple[str, str]],
             rank: Mapping[str, int]) -> None:
    """Undo forward-checking prunes, keeping domains in universe order (rank
    is the position of each element of B's universe)."""
    for (x, v) in removed:
        domains[x].append(v)
    for x in {x for x, _ in removed}:
        domains[x].sort(key=rank.__getitem__)
