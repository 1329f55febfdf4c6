"""Refinement's atomic typing by pair types, against the tuple scan it
replaced, and the pair types against a build from the relation tuples."""

import random
from itertools import product

import pytest

from oracles import atomic_colours_by_occurrences, pair_types_reference, relabelled

from gamecomonads import refine, zoo
from gamecomonads.refine import Types
from gamecomonads.structures import NO_FACTS, pair_types, validate_structure


def binary_unary(rng: random.Random, prefix: str):
    """At most 6 elements, two unary and two binary relations, loops included."""
    u = [f"{prefix}{i}" for i in range(rng.randint(1, 6))]
    dense = rng.choice((0.2, 0.5, 0.8))
    return validate_structure({"P": 1, "Q": 1, "E": 2, "F": 2}, u, {
        "P": [[x] for x in u if rng.random() < 0.5],
        "Q": [[x] for x in u if rng.random() < 0.3],
        "E": [[x, y] for x in u for y in u if rng.random() < dense],
        "F": [[x, y] for x in u for y in u if rng.random() < 0.2]})


def nudged(rng: random.Random, A):
    """A with one tuple of E added or removed."""
    u = A.universe
    t = (rng.choice(u), rng.choice(u))
    E = A.relations["E"] ^ {t}
    return validate_structure(A.sig.relations, u, {**A.relations, "E": E})


def refinement_cases():
    rng = random.Random(20260422)
    cases = []
    for _ in range(60):
        A = binary_unary(rng, "x")
        B = rng.choice([relabelled(rng, A), nudged(rng, A), binary_unary(rng, "y")])
        cases.append((A, B))
    families = [zoo.lin(3), zoo.lin(4), zoo.lin(5), zoo.cycle(5), zoo.cycle(6), zoo.path(4),
                zoo.clique(4), zoo.loop(), zoo.edge()]
    return cases + [(A, B) for A in families for B in families if A.sig == B.sig]


def test_pair_types_match_a_build_from_the_tuples():
    rng = random.Random(7)
    structures = [binary_unary(rng, "x") for _ in range(80)] + [zoo.lin(5), zoo.loop()]
    for A in structures:
        want = pair_types_reference(A)
        got = pair_types(A)  # by first element
        assert got is pair_types(A)  # kept on A
        assert {(u, v): got.get(u, {}).get(v, NO_FACTS)
                for u, v in product(A.universe, repeat=2)} == want
        assert all(row and all(row.values()) for row in got.values())  # no empty entries
    assert any((("P",) in fs and ("E", 0) in fs) for A in structures
               for row in pair_types(A).values() for fs in row.values())


def test_pair_types_are_none_with_a_ternary_relation():
    A = validate_structure({"E": 2, "T": 3}, ["a", "b"], {"E": [["a", "b"]]})
    assert pair_types(A) is None
    assert pair_types(validate_structure({}, ["a"], {})) == {}


def positions(types):
    """Pair lists that pebble every stored tuple of each side: the tuples of
    one length on A and on B zipped in order, the shorter list cycled."""
    for n in range(max(map(len, types.ids[0])) + 1):
        xs, ys = ([t for t in ids if len(t) == n] for ids in types.ids)
        for i in range(max(len(xs), len(ys)) if xs and ys else 0):
            yield list(zip(xs[i % len(xs)], ys[i % len(ys)]))


@pytest.mark.parametrize("pebble", [False, True])
@pytest.mark.parametrize("counting", [False, True])
def test_refinement_by_pair_types_matches_the_tuple_scan(pebble, counting, monkeypatch):
    """The same colours, round by round, as the atomic typing by the tuples
    through the new element: the oracle's, and refinement's own fallback
    for relations of arity 3 or more, forced on binary signatures.  At k=4
    ef's tuples of length k, which get no extensions of their own, have
    three lengths below them."""
    seen = {"refined": 0, "stopped early": 0, "equal": 0, "positions read": 0}
    for A, B in refinement_cases():
        for k in (1, 2, 3, 4):
            types = Types(A, B, k, pebble=pebble, counting=counting)
            with monkeypatch.context() as m:
                m.setattr(refine, "pair_types", lambda S: None)
                scan = Types(A, B, k, pebble=pebble, counting=counting)
            assert types.equal == scan.equal
            assert getattr(types, "history", None) == getattr(scan, "history", None)
            if hasattr(types, "history"):
                assert types.history[0] == atomic_colours_by_occurrences(A, B, k)
                seen["refined"] += len(types.history) > 1
                for pairs in positions(types):
                    seen["positions read"] += 1
                    assert all(types.colours(pairs, r) == scan.colours(pairs, r)
                               for r in range(len(types.history)))
            else:
                assert not types.equal
                seen["stopped early"] += 1
            seen["equal"] += types.equal
    assert all(seen.values()), seen
