"""Finite relational structures: validation, homomorphisms, Gaifman graphs.

Element ids are strings and universes keep insertion order, so search and
serialized output are deterministic.  All objects are treated as immutable
after validation, which lets indexes built on first use be kept on them:
the tuples through each element and pair of elements (`occurrences`) on the
source side, the completions of each pattern on the target side, and the
facts on each ordered pair of elements (`pair_types`, arity 2 at most).

`extensions` is the one kernel the solvers extend partial homomorphisms
with: the responses to a new element that keep a map a partial
homomorphism, as a mask over the target's universe.  The game searches
and `find_homomorphism` call it through an `Extender`, which with arity 2
at most builds one row of masks per played pair and ANDs it in.  The
one-pair checks (`pair_check`, `is_partial_homomorphism`,
`is_partial_isomorphism`) that certificate verifiers use do not, so they
stay independent of the solvers.  They share `pair_types` with
`refine.Types` as data only, compared by their own loop, and read the
tuples (`occurrences`) when some relation has arity 3 or more.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import and_
from typing import Callable, Iterable, Mapping, Optional, Sequence


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
    for name, ar in sig.items():
        tups = list(map(tuple, relations.get(name, ())))
        if not (set(map(len, tups)) <= {ar} and seen.issuperset(chain.from_iterable(tups))):
            # the first tuple of the wrong length or with an unknown element
            bad = next(t for t in tups if len(t) != ar or not seen.issuperset(t))
            if len(bad) != ar:
                raise StructureError(f"arity mismatch in {name}: tuple {list(bad)} "
                                     f"has length {len(bad)}, expected {ar}")
            x = next(x for x in bad if x not in seen)
            raise StructureError(f"unknown element {x!r} in relation {name}")
        interp[name] = frozenset(tups)
    return Structure(Signature(dict(sig)), tuple(universe), interp)


def structure_from_dict(data: Mapping) -> Structure | PointedStructure:
    """Parse the shared JSON object format; unknown fields are rejected, and
    so is any other shape than a signature object of integer arities, a
    universe list and a relations object of lists of lists."""
    allowed = {"signature", "universe", "relations", "point"}
    extra = set(data) - allowed
    if extra:
        raise StructureError(f"unknown field {sorted(extra)[0]!r} in structure description")
    for key in ("signature", "universe", "relations"):
        if key not in data:
            raise StructureError(f"missing field {key!r}")
    sig, universe, relations = data["signature"], data["universe"], data["relations"]
    if type(sig) is not dict or not set(map(type, sig.values())) <= {int}:
        raise StructureError("signature must be an object of integer arities")
    if type(universe) is not list:
        raise StructureError("universe must be a list of element ids")
    if (type(relations) is not dict or not set(map(type, relations.values())) <= {list}
            or not set(map(type, chain.from_iterable(relations.values()))) <= {list}):
        raise StructureError("relations must be an object of lists of tuples, each a list")
    try:
        A = validate_structure(sig, universe, relations)
    except TypeError as exc:  # an unhashable element in a tuple
        raise StructureError(f"a relation tuple holds an element that is not an id: {exc}")
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
    With `new=(a, b)`, one of the pairs or added to them, the others are
    promised to be a partial homomorphism: only (a, b) is checked, by
    `pair_types` (the facts on (a, x) hold on (b, y) for each pair (x, y)
    and for (a, b)) or the tuples through a."""
    return pair_check(A, B)(pairs, new)


def is_partial_isomorphism(pairs: Iterable[tuple[str, str]],
                           A: Structure, B: Structure, new: Optional[tuple] = None) -> bool:
    """Functional, injective, and relation-reflecting in both directions;
    `new` as above: equal facts on (a, x) and (b, y), or else the tuples
    through a in A and through b in B."""
    return pair_check(A, B, iso=True)(pairs, new)


def pair_check(A: Structure, B: Structure, iso: bool = False) -> Callable[..., bool]:
    """`is_partial_isomorphism` on A and B if iso, else
    `is_partial_homomorphism`, as a function of (pairs, new=None) that looks
    up the pair types of both sides once, for a verifier to call per pair;
    with `new=(a, b)` it reads a's and b's rows of them."""
    pa, pb = pair_types(A), pair_types(B)
    if pa is None or pb is None:
        return lambda pairs, new=None: _scan((*pairs, new) if new else pairs, A, B, new, iso)

    def homomorphism(pairs, new=None) -> bool:
        if not new:
            return _scan(pairs, A, B, new, False)
        a, b = new
        fa, fb = pa.get(a, NO_ROW).get, pb.get(b, NO_ROW).get
        for x, y in pairs:
            if x == a and y != b or not fa(x, NO_FACTS) <= fb(y, NO_FACTS):
                return False
        return fa(a, NO_FACTS) <= fb(b, NO_FACTS)

    def isomorphism(pairs, new=None) -> bool:
        if not new:
            return _scan(pairs, A, B, new, True)
        a, b = new
        fa, fb = pa.get(a, NO_ROW).get, pb.get(b, NO_ROW).get
        for x, y in pairs:
            if (x == a) != (y == b) or fa(x, NO_FACTS) != fb(y, NO_FACTS):
                return False
        return fa(a, NO_FACTS) == fb(b, NO_FACTS)
    return isomorphism if iso else homomorphism


def _scan(pairs, A: Structure, B: Structure, new: Optional[tuple], iso: bool) -> bool:
    """The check by the tuples: functional (and injective if iso), and each
    tuple it maps in full preserved (and reflected if iso), only those
    through `new` if given."""
    fwd: dict[str, str] = {}
    bwd: dict[str, str] = {}
    for a, b in pairs:
        if fwd.setdefault(a, b) != b or iso and bwd.setdefault(b, a) != a:
            return False
    return (_preserved(fwd, A, B, new and new[0])
            and (not iso or _preserved(bwd, B, A, new and new[1])))


def _preserved(m: Mapping[str, str], A: Structure, B: Structure, through: Optional[str]) -> bool:
    """Whether m maps into B every tuple of A (through `through`, if given)
    whose elements it all maps."""
    occ, rel = occurrences(A), B.relations
    for a in m if through is None else (through,):
        for name, t in occ.get(a, ()):
            if all(map(m.__contains__, t)) and tuple(map(m.__getitem__, t)) not in rel[name]:
                return False
    return True


NO_FACTS: frozenset = frozenset()
NO_ROW: dict = {}


def pair_types(A: Structure) -> Optional[dict]:
    """Element u -> {v: the facts on the ordered pair (u, v)}: (name, 0) if
    (u, v) is in name, (name, 1) if (v, u) is, and on (u, u) (name,) for each
    unary name at u; pairs with none are left out, and elements with none.
    None if some relation has arity 3 or more.  Built on first use and then
    kept on A, as `occurrences` is."""
    if "_pair_types" not in vars(A):
        pt = vars(A)["_pair_types"] = {} if max(A.sig.relations.values(), default=0) <= 2 else None
        for name, tups in A.relations.items() if pt is not None else ():
            for t in tups:
                for (u, v), fact in ([(t * 2, (name,))] if len(t) == 1
                                     else [(t, (name, 0)), (t[::-1], (name, 1))]):
                    row = pt.setdefault(u, {})
                    row[v] = row.get(v, NO_FACTS) | {fact}
    return vars(A)["_pair_types"]


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
        images = tuple(map(m.get, t))  # None in x's slots and in those m leaves free
        if images.count(None) == t.count(x):
            pattern = (name, images)
            if pattern not in completions:
                rel = B.relations[name]
                completions[pattern] = sum(
                    1 << i for i, b in enumerate(B.universe)
                    if tuple([b if z is None else z for z in pattern[1]]) in rel)
            mask &= completions[pattern]
    return mask


class Extender:
    """Partial homomorphisms from A to B, extended one pair at a time within
    one solver call.  Options are masks over B's universe, one per element
    of A in universe order: `start` holds those of the empty map, and
    `extend(options, a, b, m)` those after a -> b is played on m, the pairs
    played before (a map or pairs), which options belongs to.

    With arity 2 at most, a tuple through a and another element x holds
    nothing else, so the responses to x that keep {a -> b, x -> .} on the
    tuples through x and a depend on (a, b) alone: `row(a, b)`, built from
    `extensions` over a's neighbours on first use and kept, all ones for
    every other x and for a itself.  `extend` ANDs it into every option,
    pebbled elements' too: x pebbled with y keeps y, as b is an option for a
    only if {x -> y, a -> b} holds on the tuples through both, which is what
    y in row(a, b)[x] says.  With a relation of arity 3 or more, `extend`
    calls `extensions` with the whole map for each unpebbled neighbour of a
    whose option is not yet 0."""

    def __init__(self, A: Structure, B: Structure):
        self.A, self.B = A, B
        self.ones = (1 << len(B.universe)) - 1
        occ = occurrences(A)
        self.near = {a: [(y, x) for y, x in enumerate(A.universe) if x != a and (a, x) in occ]
                     for a in A.universe}
        self.start = [extensions(A, B, {}, a) for a in A.universe]
        self.rows: Optional[dict] = {} if max(A.sig.relations.values(), default=0) <= 2 else None

    def row(self, a: str, b: str) -> tuple[int, ...]:
        """For each x of A, the responses that keep {a -> b, x -> .} on the
        tuples through x and a (arity 2 at most)."""
        row = self.rows.get((a, b))
        if row is None:
            out, m = [self.ones] * len(self.A.universe), {a: b}
            for y, x in self.near[a]:
                out[y] = extensions(self.A, self.B, m, x, through=a)
            row = self.rows[a, b] = tuple(out)
        return row

    def extend(self, options: Sequence[int], a: str, b: str, m) -> list[int]:
        if self.rows is not None:
            return list(map(and_, options, self.rows.get((a, b)) or self.row(a, b)))
        m, out = dict(m), list(options)
        m[a] = b
        for y, x in self.near[a]:
            if out[y] and x not in m:
                out[y] &= extensions(self.A, self.B, m, x, through=a)
        return out


def find_homomorphism(A: Structure, B: Structure,
                      pre: Optional[Mapping[str, str]] = None) -> Optional[dict[str, str]]:
    """Backtracking search with forward checking over the relation constraints.

    Variables are taken in universe order, candidate values in universe order,
    so the returned homomorphism is the first one in that order.  `pre` pins
    assignments (used for pointed homomorphism search).  Domains are masks
    over B's universe, narrowed as an `Extender` narrows options: assigning
    a variable passes on the domains ANDed with its row, and a value whose
    domains have a 0 is not tried further.
    """
    require_same_signature(A, B)
    bit = {b: 1 << i for i, b in enumerate(B.universe)}
    ext = Extender(A, B)
    domains = [d & bit.get(pre[a], 0) if pre and a in pre else d
               for a, d in zip(A.universe, ext.start)]
    assignment: dict[str, str] = {}

    def search(i: int, domains: list[int]) -> bool:
        if i == len(A.universe):
            return True
        var, values = A.universe[i], domains[i]
        while values:
            low = values & -values
            values ^= low
            b = B.universe[low.bit_length() - 1]
            mine = ext.extend(domains, var, b, assignment)
            assignment[var] = b
            if all(mine) and search(i + 1, mine):
                return True
        assignment.pop(var, None)
        return False

    if all(domains) and search(0, domains):
        return dict(assignment)
    return None
