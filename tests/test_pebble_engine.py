"""Differential tests of the pebble engines (the tier-1 fixpoint and the
k-variable types of tiers 2 and 3) against the re-sweep oracle and against
the fixpoint engine that the types replaced.

The engines' positions are sets of pairs; the references play over
multisets, so their winning positions are compared on the positions without
a repeated pair."""

import random
from itertools import combinations

import pytest
from oracles import (all_digraphs, pebble_fixpoint_reference, pebble_game_reference,
                     pebble_resweep_fixpoint, relabelled)

from gamecomonads import zoo
from gamecomonads.matching import perfect_matching
from gamecomonads.pebble import PebbleRules, pair_bits, pebble_bases, pebble_fixpoint, pebble_game
from gamecomonads.refine import Types
from gamecomonads.strategy import certificate
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
    if family == "copies":  # positive pairs, whose whole winning sets are compared
        rng = random.Random(20181004)
        return [(A, relabelled(rng, A)) for A in (random_structure(rng, "x") for _ in range(30))]
    zoo_structures = ([zoo.cycle(n) for n in (3, 4, 5)] + [zoo.path(n) for n in (2, 3, 4)]
                      + [star(n) for n in (1, 2, 3)])
    return [(A, B) for A in zoo_structures for B in zoo_structures]


def _sets(positions) -> set:
    """The positions of a multiset reference that repeat no pair."""
    return {pos for pos in positions if len(set(pos)) == len(pos)}


def _positions(masks, A, B) -> set:
    """The fixpoint's masks as positions: sorted tuples of their pairs."""
    return {tuple(pair for pair, bit in pair_bits(A, B).items() if mask & bit) for mask in masks}


def _live(A, B, k, tier):
    """The positions the library's engine of a tier keeps: the fixpoint at
    tier 1; at tiers 2 and 3 those whose two tuples have the same type, or
    None when the empty tuples differ (refinement then stops early)."""
    if tier == 1:
        return _positions(pebble_fixpoint(A, B, k), A, B)
    types = Types(A, B, k, pebble=True, counting=tier == 3)
    if not types.equal:
        return None
    pairs = sorted((a, b) for a in A.universe for b in B.universe)
    live = {()}
    for size in range(k):
        for base in combinations(pairs, size):
            if base not in live:
                continue  # nor is any position built on it
            same = types.same_after(base)
            live.update(base + (p,) for p in pairs[pairs.index(base[-1]) + 1 if base else 0:]
                        if same(*p))
    return live


def _read_off(A, B, k, tier, live):
    """The verdict and certificate of a tier's game with the live positions of
    a multiset reference."""
    if () not in live:
        return False, None
    return True, certificate(PebbleRules(A, B, k, tier), tier, lambda base, _: (
        lambda a, b: tuple(sorted(base + ((a, b),))) in live))


def _matches_resweep(A, B, k, tier) -> bool:
    """Assert that the engine of a tier keeps the re-sweep oracle's positions
    and gives its verdict and certificate; return the verdict."""
    slow = pebble_resweep_fixpoint(A, B, k, tier)
    live = _live(A, B, k, tier)
    assert (() not in slow) if live is None else live == _sets(slow), (A, B, k, tier)
    assert pebble_game(A, B, k, tier) == _read_off(A, B, k, tier, slow), (A, B, k, tier)
    return () in slow


@pytest.mark.parametrize("family", ["digraphs", "random", "copies", "zoo"])
def test_engine_matches_resweep(family):
    for A, B in _pairs(family):
        for k in KS:
            for tier in TIERS:
                _matches_resweep(A, B, k, tier)


def test_tier_one_matches_resweep_at_four_pebbles():
    """Tier 1 at k=4 (positions of up to four bits) on the zoo pairs with at
    most 16 pairs, against the re-sweep oracle: winning sets, verdicts and
    certificates."""
    cases = [(A, B) for A, B in _pairs("zoo") if len(A.universe) * len(B.universe) <= 16]
    won = sum(_matches_resweep(A, B, 4, 1) for A, B in cases)
    assert 0 < won < len(cases)


def _good_as_base(base, live, A, B, tier) -> bool:
    def alive(a, b):
        return tuple(sorted({*base, (a, b)})) in live
    if tier == 3:
        return perfect_matching(A.universe, B.universe, alive) is not None
    return (all(any(alive(a, b) for b in B.universe) for a in A.universe)
            and (tier == 1 or all(any(alive(a, b) for a in A.universe) for b in B.universe)))


def test_short_position_survives_only_if_good_as_its_own_base():
    killed_by_itself = 0
    for A, B in _pairs("zoo"):
        for k in (2, 3):
            for tier in TIERS:
                live = _live(A, B, k, tier)
                if live is None:  # refinement stopped early: the old engine's set
                    live = _sets(pebble_fixpoint_reference(A, B, k, tier))
                winning = is_partial_homomorphism if tier == 1 else is_partial_isomorphism
                pairs = sorted((a, b) for a in A.universe for b in B.universe)
                short = [pos for size in range(k)
                         for pos in combinations(pairs, size)
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


@pytest.mark.parametrize("family", ["digraphs", "random", "copies", "zoo"])
def test_types_match_fixpoint_engine(family):
    """Tiers 2 and 3 by k-variable types give the verdicts and certificates of
    the fixpoint engine they replaced, up to one pebble more than elements
    (at most 4 pebbles)."""
    for A, B in _pairs(family):
        for k in range(1, min(len(A.universe), 3) + 2):
            for tier in (2, 3):
                assert pebble_game(A, B, k, tier) == pebble_game_reference(A, B, k, tier), \
                    (A, B, k, tier)


@pytest.mark.parametrize("A, B, k, live", [
    (zoo.cycle(5), zoo.cycle(5), 3, 226), (zoo.cycle(6), zoo.cycle(3), 2, 136),
    (zoo.cycle(4), zoo.path(3), 3, 63), (zoo.path(4), zoo.cycle(5), 3, 201),
    (zoo.lin(4), zoo.lin(5), 3, 43), (zoo.cycle(5), zoo.clique(3), 3, 241),
    (zoo.lin(5), zoo.lin(3), 2, 0), (zoo.cycle(7), zoo.cycle(3), 3, 841),
    (zoo.cycle(8), zoo.cycle(8), 3, 4161)])
def test_fixpoint_live_counts_are_pinned(A, B, k, live):
    """The number of winning positions of the tier-1 fixpoint on fixed cases."""
    assert len(pebble_fixpoint(A, B, k)) == live
