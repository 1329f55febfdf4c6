"""Differential tests of the pebble fixpoint engine against the re-sweep oracle."""

import random
from itertools import combinations_with_replacement

import pytest
from oracles import all_digraphs, pebble_resweep_fixpoint

from gamecomonads import equiv, pebble, zoo
from gamecomonads.matching import perfect_matching
from gamecomonads.pebble import _canon, pebble_bases, pebble_fixpoint
from gamecomonads.structures import (is_partial_homomorphism, is_partial_isomorphism,
                                     validate_structure)

TIERS = (1, 2, 3)
KS = (1, 2, 3)


def star(n: int):
    """K_{1,n}: a centre joined to n leaves, symmetric."""
    u = ["c"] + [f"l{i}" for i in range(n)]
    return validate_structure({"R": 2}, u,
                              {"R": [t for leaf in u[1:] for t in (["c", leaf], [leaf, "c"])]})


def random_structure(rng: random.Random, prefix: str):
    """At most 4 elements, one binary and one unary relation."""
    u = [f"{prefix}{i}" for i in range(rng.randint(1, 4))]
    return validate_structure({"E": 2, "P": 1}, u, {
        "E": [[x, y] for x in u for y in u if rng.random() < 0.35],
        "P": [[x] for x in u if rng.random() < 0.5]})


def _pairs(family: str):
    if family == "digraphs":
        ds = all_digraphs(2)
        return [(A, B) for A in ds for B in ds]
    if family == "random":
        rng = random.Random(20180625)
        return [(random_structure(rng, "x"), random_structure(rng, rng.choice("xy")))
                for _ in range(40)]
    zoo_structures = ([zoo.cycle(n) for n in (3, 4, 5)] + [zoo.path(n) for n in (2, 3, 4)]
                      + [star(n) for n in (1, 2, 3)])
    return [(A, B) for A in zoo_structures for B in zoo_structures]


def _solve_all(A, B, k):
    return (pebble.pebble_game_exists(A, B, k), equiv.pebble_back_and_forth(A, B, k),
            equiv.pebble_bijection_equiv(A, B, k))


@pytest.mark.parametrize("family", ["digraphs", "random", "zoo"])
def test_engine_matches_resweep(family, monkeypatch):
    for A, B in _pairs(family):
        for k in KS:
            for tier in TIERS:
                assert pebble_fixpoint(A, B, k, tier) == pebble_resweep_fixpoint(A, B, k, tier), \
                    (A, B, k, tier)
            fast = _solve_all(A, B, k)
            with monkeypatch.context() as m:
                m.setattr(pebble, "pebble_fixpoint", pebble_resweep_fixpoint)
                assert _solve_all(A, B, k) == fast, (A, B, k)


def _good_as_base(base, live, A, B, tier) -> bool:
    def alive(a, b):
        return _canon(base + ((a, b),)) in live
    if tier == 3:
        return perfect_matching(A.universe, B.universe, alive) is not None
    return (all(any(alive(a, b) for b in B.universe) for a in A.universe)
            and (tier == 1 or all(any(alive(a, b) for a in A.universe) for b in B.universe)))


def test_short_position_survives_only_if_good_as_its_own_base():
    killed_by_itself = 0
    for A, B in _pairs("zoo"):
        for k in (2, 3):
            for tier in TIERS:
                live = pebble_fixpoint(A, B, k, tier)
                winning = is_partial_homomorphism if tier == 1 else is_partial_isomorphism
                pairs = sorted((a, b) for a in A.universe for b in B.universe)
                short = [pos for size in range(k)
                         for pos in combinations_with_replacement(pairs, size)
                         if winning(pos, A, B)]
                for pos in short:
                    own = _good_as_base(pos, live, A, B, tier)
                    if pos in live:
                        assert own, (A, B, k, tier, pos)
                    elif all(_good_as_base(base, live, A, B, tier)
                             for base in pebble_bases(pos, k) if base != pos):
                        assert not own
                        killed_by_itself += 1
    assert killed_by_itself > 0
