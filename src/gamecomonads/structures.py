"""Finite relational structures: validation, homomorphisms, Gaifman graphs.

Element ids are strings and universes keep insertion order, so search and
serialized output are deterministic.  All objects are treated as immutable
after validation, which lets indexes built on first use be kept on them:
the tuples through each element and pair of elements (`occurrences`) on the
source side, and the completions of each pattern on the target side.

`extensions` is the one kernel the solvers extend partial homomorphisms
with: the responses to a new element that keep a map a partial
homomorphism, as a mask over the target's universe.  The game searches
and `find_homomorphism` call it; the one-pair checks
(`is_partial_homomorphism`, `is_partial_isomorphism`) that certificate
verifiers use do not, so they stay independent of the solvers.
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


def occurrences(A: Structure) -> dict:
    """Element x -> (relation name, tuple) for every tuple x occurs in, and
    pair (x, y) -> the tuples both occur in (x's own list when x == y).

    Built on first use and then kept on A (structures are not changed after
    validation), so callers must not change it."""
    if "_occurrences" not in vars(A):
        occ: dict = {}
        for a in A.universe:
            occ[a] = occ[a, a] = []
        for name, tups in A.relations.items():
            for t in tups:
                for x in set(t):
                    occ[x].append((name, t))
                    for y in set(t) - {x}:
                        occ.setdefault((x, y), []).append((name, t))
        vars(A)["_occurrences"] = occ
    return vars(A)["_occurrences"]


def extensions(A: Structure, B: Structure, m: Mapping[str, str], x: str,
               through: Optional[str] = None) -> int:
    """The b that keep m extended by x -> b a partial homomorphism, as a mask
    over B's universe (bit i for `B.universe[i]`); x is unmapped by m.

    Only the tuples of A through x (and through `through`, if given) whose
    other elements m maps are read: if m preserves every tuple it maps in
    full, the others were checked before.  Each is a pattern over B, the
    relation name and m's images with x's slots free (None), and the mask
    of a pattern's completions is built once and then kept on B.
    """
    completions, mask = vars(B).setdefault("_completions", {}), (1 << len(B.universe)) - 1
    for name, t in occurrences(A).get((x, x if through is None else through), ()):
        if all(z == x or z in m for z in t):
            pattern = (name, tuple([None if z == x else m[z] for z in t]))
            if pattern not in completions:
                rel = B.relations[name]
                completions[pattern] = sum(
                    1 << i for i, b in enumerate(B.universe)
                    if tuple([b if z is None else z for z in pattern[1]]) in rel)
            mask &= completions[pattern]
    return mask


def find_homomorphism(A: Structure, B: Structure,
                      pre: Optional[Mapping[str, str]] = None) -> Optional[dict[str, str]]:
    """Backtracking search with forward checking over the relation constraints.

    Variables are taken in universe order, candidate values in universe order,
    so the returned homomorphism is the first one in that order.  `pre` pins
    assignments (used for pointed homomorphism search).  Domains are masks
    over B's universe: assigning a variable narrows the domain of each
    unassigned neighbour by `extensions` through it, and a wiped-out domain
    undoes the narrowing from the saved masks.
    """
    require_same_signature(A, B)
    bit = {b: 1 << i for i, b in enumerate(B.universe)}
    variables = list(A.universe)
    domains = {a: extensions(A, B, {}, a) for a in variables}
    for a in variables:
        if pre and a in pre:
            domains[a] &= bit.get(pre[a], 0)
    if not all(domains.values()):
        return None
    occ = occurrences(A)
    near = {a: {z for _, t in occ[a] for z in t} - {a} for a in variables}
    assignment: dict[str, str] = {}

    def search(i: int) -> bool:
        if i == len(variables):
            return True
        var, values = variables[i], domains[variables[i]]
        while values:
            low = values & -values
            values ^= low
            assignment[var] = B.universe[low.bit_length() - 1]
            saved = {}
            for u in near[var]:
                if u not in assignment:
                    saved[u] = domains[u]
                    domains[u] &= extensions(A, B, assignment, u, through=var)
                    if not domains[u]:
                        break
            else:
                if search(i + 1):
                    return True
            domains.update(saved)
        assignment.pop(var, None)
        return False

    if search(0):
        return dict(assignment)
    return None
