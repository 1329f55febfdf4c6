"""Differential tests of the pebble engines (the tier-1 fixpoint and the
k-variable types of tiers 2 and 3) against the re-sweep oracle and against
the engines they replaced: the counter fixpoint over every position (tier
1) and the fixpoint engine over multisets (tiers 2 and 3).

The engines' positions are sets of pairs; the re-sweep oracle and the
multiset engine play over multisets, so their winning positions are compared
on the positions without a repeated pair."""

import random
from itertools import combinations

import pytest
from oracles import (all_digraphs, answers, pebble_bases, pebble_counter_fixpoint,
                     pebble_fixpoint_reference, pebble_game_reference, pebble_resweep_fixpoint,
                     perfect_matching, relabelled)

from gamecomonads import zoo
from gamecomonads.pebble import PebbleRules, pebble_fixpoint, pebble_game
from gamecomonads.refine import CAP, Types
from gamecomonads.strategy import certificate
from gamecomonads.structures import (CapExceeded, is_partial_homomorphism,
                                     is_partial_isomorphism, validate_structure)

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


def _live_positions(A, B, bases) -> set:
    """The live positions of the tier-1 fixpoint's bases, as sorted tuples of
    their pairs: the empty position if its base is good, and the base plus
    (a, b) for each good base, unpebbled a and set bit b of a's row (a base
    is good iff none of its rows is 0; pair (A.universe[x], B.universe[i])
    is bit x * |B| + i)."""
    width = len(B.universe)
    live = {()} if all(bases[0]) else set()
    for base, rows in bases.items():
        if not all(rows):
            continue
        pairs = [(A.universe[j // width], B.universe[j % width])
                 for j in range(base.bit_length()) if base >> j & 1]
        pebbled = {a for a, _ in pairs}
        live.update(tuple(sorted([*pairs, (a, b)]))
                    for a, row in zip(A.universe, rows) if a not in pebbled
                    for i, b in enumerate(B.universe) if row >> i & 1)
    return live


def _live(A, B, k, tier):
    """The positions the library's engine of a tier keeps: the fixpoint at
    tier 1; at tiers 2 and 3 those whose two tuples have the same type (only
    a pair of unpebbled elements extends a partial isomorphism), or None when
    the empty tuples differ (refinement then stops early)."""
    if tier == 1:
        return _live_positions(A, B, pebble_fixpoint(A, B, k))
    types = Types(A, B, k, pebble=True, counting=tier == 3)
    if not types.equal:
        return None
    pairs = sorted((a, b) for a in A.universe for b in B.universe)
    live = {()}
    for size in range(k):
        for base in combinations(pairs, size):
            if base not in live:
                continue  # nor is any position built on it
            ca, cb = types.colours(base)
            xs, ys = {a for a, _ in base}, {b for _, b in base}
            later = pairs[pairs.index(base[-1]) + 1 if base else 0:]
            live.update(base + ((a, b),) for a, b in later
                        if a not in xs and b not in ys and ca[a] == cb[b])
    return live


def _read_off(A, B, k, tier, live):
    """The verdict and certificate of a tier's game with the live positions of
    a multiset reference."""
    if () not in live:
        return False, None
    return True, certificate(PebbleRules(A, B, k, tier), tier, lambda base, _, xs, ys: answers(
        tier, xs, ys, lambda a, b: tuple(sorted(base + ((a, b),))) in live))


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
    assert len(_live_positions(A, B, pebble_fixpoint(A, B, k))) == live


def random_small(rng: random.Random, prefix: str, d: float):
    """At most 5 elements, with a unary, a binary and a ternary relation of
    density about d; loops and tuples that repeat an element included."""
    u = [f"{prefix}{i}" for i in range(rng.randint(1, 5))]
    return validate_structure({"P": 1, "E": 2, "T": 3}, u, {
        "P": [[x] for x in u if rng.random() < d],
        "E": [[x, y] for x in u for y in u if rng.random() < d],
        "T": [[x, y, z] for x in u for y in u for z in u if rng.random() < d * d]})


def _small_pair(rng: random.Random):
    """A sparse A and, into it, a relabelled copy or a denser B."""
    d = rng.uniform(0.1, 0.6)
    A = random_small(rng, "x", d)
    if rng.random() < 0.2:
        return A, relabelled(rng, A)
    return A, random_small(rng, rng.choice("xy"), rng.uniform(d, 1))


def test_tier_one_matches_counter_reference():
    """The fixpoint over bases keeps the live positions of the counter scheme
    over every position (`oracles.pebble_counter_fixpoint`), and gives its
    verdict and certificate, on seeded random pairs at one to four pebbles."""
    rng = random.Random(20000301)
    won = 0
    for _ in range(400):
        (A, B), k = _small_pair(rng), rng.randint(1, 4)
        slow = pebble_counter_fixpoint(A, B, k)
        assert _live_positions(A, B, pebble_fixpoint(A, B, k)) == slow, (A, B, k)
        assert pebble_game(A, B, k, 1) == _read_off(A, B, k, 1, slow), (A, B, k)
        won += () in slow
    assert 50 < won < 350


def test_positions_cap_counts_every_position(monkeypatch):
    """Under a small cap, the fixpoint over bases raises `CapExceeded` on
    exactly the pairs where the reference, which stores every position,
    does: the bases and the positions of k pairs they stand for are counted
    in full."""
    monkeypatch.setattr("gamecomonads.pebble.CAP", 20)
    rng = random.Random(19980706)
    raised = 0
    for _ in range(200):
        (A, B), k = _small_pair(rng), rng.randint(1, 4)
        try:
            pebble_counter_fixpoint(A, B, k, cap=20)
        except CapExceeded:
            with pytest.raises(CapExceeded) as exc:
                pebble_fixpoint(A, B, k)
            assert 20 < exc.value.required <= 20 + len(A.universe) * len(B.universe)
            raised += 1
        else:
            pebble_fixpoint(A, B, k)
    assert 20 < raised < 180


def test_positions_cap_raises_within_one_base():
    """lin(15) into lin(14) at four pebbles has ~1.5 million positions: the
    count passes `CAP` by at most the positions one base stands for."""
    A, B = zoo.lin(15), zoo.lin(14)
    with pytest.raises(CapExceeded, match="positions or more") as exc:
        pebble_fixpoint(A, B, 4)
    assert CAP < exc.value.required <= CAP + len(A.universe) * len(B.universe)


def test_base_count_is_pinned():
    """Only bases (fewer than k pairs) are stored: 1,473 partial
    homomorphisms of at most two pairs for cycle(8) into itself at k=3,
    against 14,017 positions of at most three."""
    assert len(pebble_fixpoint(zoo.cycle(8), zoo.cycle(8), 3)) == 1473
