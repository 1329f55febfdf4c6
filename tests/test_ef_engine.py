"""Differential tests of the ef engines (the tier-1 game search and the
rank-k types of tiers 2 and 3) against the plain partial hom/iso checks, the
separate memoised recursions of each tier and the pair-set engine that the
types replaced."""

import random
from itertools import combinations

import pytest
from oracles import (EfGameReference, all_digraphs, ef_back_and_forth_recursion,
                     ef_bijection_recursion, ef_game_recursion, ef_game_reference, relabelled)

from gamecomonads import zoo
from gamecomonads.ef import EfGame, EfRules, ef_game, ef_game_exists
from gamecomonads.structures import (is_partial_homomorphism, is_partial_isomorphism,
                                     validate_structure)


def random_structure(rng: random.Random, prefix: str):
    """At most 4 elements; a binary, a unary and a ternary relation, loops allowed."""
    u = [f"{prefix}{i}" for i in range(rng.randint(1, 4))]
    return validate_structure({"E": 2, "P": 1, "T": 3}, u, {
        "E": [[x, y] for x in u for y in u if rng.random() < 0.35],
        "P": [[x] for x in u if rng.random() < 0.5],
        "T": [[x, y, z] for x in u for y in u for z in u if rng.random() < 0.1]})


def random_pairs(count: int, seed: int):
    """Each random structure against a relabelled copy or against another one."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        A = random_structure(rng, "x")
        out.append((A, relabelled(rng, A) if i % 2 else random_structure(rng, rng.choice("xy"))))
    return out


@pytest.mark.parametrize("tier", [1, 2])
def test_options_match_plain_checks(tier):
    """Every winning pair set of at most 3 pairs is reached, and the options
    of its unpebbled elements (at tier 1 decoded from masks) are exactly the
    responses the plain check accepts."""
    winning = is_partial_homomorphism if tier == 1 else is_partial_isomorphism
    for A, B in random_pairs(12, 4):
        game = EfGame(EfRules(A, B, 3, 1)) if tier == 1 else EfGameReference(A, B, 2)
        reached = {frozenset()}
        frontier = [frozenset()]
        for size in range(4):
            nxt = []
            for pairs in frontier:
                options = game.memo[pairs][0]
                if tier == 1:  # masks over B's universe
                    options = [tuple(b for i, b in enumerate(B.universe) if mask >> i & 1)
                               for mask in options]
                pebbled = dict(pairs)
                for a, bs in zip(A.universe, options):
                    if a in pebbled:
                        continue
                    assert bs == tuple(b for b in B.universe
                                       if winning(pairs | {(a, b)}, A, B)), (A, B, pairs, a)
                    for b in bs if size < 3 else ():
                        child = game.child(pairs, a, b)
                        if child not in reached:
                            reached.add(child)
                            nxt.append(child)
            frontier = nxt
        all_pairs = [(a, b) for a in A.universe for b in B.universe]
        expected = {frozenset(c) for size in range(4) for c in combinations(all_pairs, size)
                    if winning(c, A, B)}
        assert reached == expected, (A, B)


def _pairs(family: str):
    if family == "digraphs":
        ds = all_digraphs(2)
        return [(A, B) for A in ds for B in ds]
    if family == "random":
        return random_pairs(30, 20181004)
    if family == "zoo":
        graphs = [zoo.cycle(n) for n in (3, 4, 5)] + [zoo.path(n) for n in (2, 3, 4)]
        return [(A, B) for A in graphs for B in graphs]
    return [(zoo.lin(m), zoo.lin(n)) for m in range(1, 7) for n in range(1, 7)]


@pytest.mark.usefixtures("no_morphism")
@pytest.mark.parametrize("family", ["digraphs", "random", "lin"])
def test_engine_matches_recursions(family):
    for A, B in _pairs(family):
        for k in (1, 2, 3):
            exists, f = ef_game_exists(A, B, k)
            assert (exists, f and f.table) == ef_game_recursion(A, B, k), (A, B, k)
            assert ef_game(A, B, k, 2) == ef_back_and_forth_recursion(A, B, k), (A, B, k)
            assert ef_game(A, B, k, 3) == ef_bijection_recursion(A, B, k), (A, B, k)


@pytest.mark.usefixtures("no_morphism")
def test_rounds_past_the_unpebbled_elements_match_recursions():
    """The engine stops recursing where no unpebbled element is left; the
    uncapped recursions must agree at more rounds than elements."""
    ds = all_digraphs(2)
    for A, B in [(A, B) for A in ds for B in ds] + random_pairs(20, 7):
        if len(A.universe) + len(B.universe) > 5:
            continue
        for k in (4, 6):
            exists, f = ef_game_exists(A, B, k)
            assert (exists, f and f.table) == ef_game_recursion(A, B, k), (A, B, k)
            assert ef_game(A, B, k, 2) == ef_back_and_forth_recursion(A, B, k), (A, B, k)
            assert ef_game(A, B, k, 3) == ef_bijection_recursion(A, B, k), (A, B, k)


@pytest.mark.usefixtures("no_morphism")
@pytest.mark.parametrize("family", ["digraphs", "random", "lin", "zoo"])
def test_types_match_pair_set_engine(family):
    """Tiers 2 and 3 by rank-k types give the verdicts and certificates of the
    pair-set engine they replaced, at more rounds than elements too."""
    for A, B in _pairs(family):
        for k in range(1, min(len(A.universe), 4) + 2):
            assert ef_game(A, B, k, 2) == ef_game_reference(A, B, k, 2), (A, B, k)
            assert ef_game(A, B, k, 3) == ef_game_reference(A, B, k, 3), (A, B, k)


def test_search_size_is_pinned():
    """The memo of the tier-1 search holds the pair sets it reaches: on
    clique(8) against itself with 6 rounds there are 8,801."""
    game = EfGame(EfRules(zoo.clique(8), zoo.clique(8), 6, 1))
    assert game.win(frozenset(), 6)
    assert len(game.memo) == 8801


@pytest.mark.usefixtures("no_morphism")
def test_certificate_has_one_entry_per_pair_set():
    """The certificate of the same game answers once per pair set, with the
    most rounds left it is reached with: as many entries as the memo holds."""
    A = zoo.clique(8)
    positions = ef_game(A, A, 6, 1)[1]["positions"]
    assert len(positions) == len({tuple(map(tuple, e["pairs"])) for e in positions}) == 8801
