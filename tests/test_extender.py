"""The rows of `structures.Extender` against the kernel they are built from,
the per-call path that signatures with a ternary relation keep, and the
`extensions` calls the rows save the pebble fixpoint."""

import random
from itertools import product

import pytest
from oracles import ef_game_reference, pebble_game_reference, relabelled

from gamecomonads import structures, zoo
from gamecomonads.ef import ef_game
from gamecomonads.pebble import pebble_fixpoint, pebble_game
from gamecomonads.structures import (CapExceeded, Extender, extensions, find_homomorphism,
                                     is_homomorphism, occurrences, validate_structure)


def binary_structure(rng: random.Random, prefix: str, ternary: bool = False):
    """At most 5 elements; a binary relation with loops likely, a unary one
    and, if asked for, a ternary one."""
    u = [f"{prefix}{i}" for i in range(rng.randint(1, 5))]
    d = rng.uniform(0.2, 0.7)
    rels = {"E": [[x, y] for x in u for y in u if rng.random() < (0.6 if x == y else d)],
            "P": [[x] for x in u if rng.random() < 0.5]}
    if ternary:
        rels["T"] = [list(t) for t in product(u, repeat=3) if rng.random() < 0.1]
    return validate_structure({"E": 2, "P": 1, **({"T": 3} if ternary else {})}, u, rels)


def seeded_pairs(count: int, seed: int, ternary: bool = False):
    """A random A against a relabelled copy of it or against another one."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        A = binary_structure(rng, "x", ternary)
        out.append((A, relabelled(rng, A) if i % 3 == 0
                    else binary_structure(rng, rng.choice("xy"), ternary)))
    return out


def test_rows_match_the_kernel():
    """row(a, b)[x] is `extensions` of {a: b} to x through a when x shares a
    tuple with a, and all ones otherwise (a itself included), for every
    (a, b) and x; rows are kept per pair."""
    restricted = 0
    for A, B in seeded_pairs(240, 20001110):
        ext, occ = Extender(A, B), occurrences(A)
        ones = (1 << len(B.universe)) - 1
        assert ext.rows is not None
        for a, b in product(A.universe, B.universe):
            row = ext.row(a, b)
            assert row is ext.row(a, b)
            for x, got in zip(A.universe, row):
                near = x != a and (a, x) in occ
                want = extensions(A, B, {a: b}, x, through=a) if near else ones
                assert got == want, (A, B, a, b, x)
                restricted += got != ones
    assert restricted > 1000


def test_rows_give_the_per_call_results(monkeypatch):
    """On binary signatures the rows give what the per-call path gives: the
    same tier-1 verdicts and certificates, the same fixpoint rows on the
    unpebbled elements, and the same first homomorphism."""
    pairs = seeded_pairs(200, 19980706)
    k_of = [1 + i % 3 for i in range(len(pairs))]

    def run():
        out = []
        for (A, B), k in zip(pairs, k_of):
            fix = pebble_fixpoint(A, B, k)
            unpebbled = {base: [row for x, row in enumerate(rows)
                                if not base >> x * len(B.universe) & ((1 << len(B.universe)) - 1)]
                         for base, rows in fix.items()}
            out.append((ef_game(A, B, k, 1), pebble_game(A, B, k, 1), unpebbled,
                        find_homomorphism(A, B)))
        return out

    with_rows = run()
    init = Extender.__init__

    def per_call(self, A, B):
        init(self, A, B)
        self.rows = None
    monkeypatch.setattr(Extender, "__init__", per_call)
    assert run() == with_rows
    assert 30 < sum(r[0][0] for r in with_rows) < 190
    assert 30 < sum(r[3] is not None for r in with_rows) < 190


@pytest.mark.usefixtures("no_morphism")
def test_a_ternary_signature_takes_the_per_call_path(monkeypatch):
    """With a ternary relation no row is built, and the solvers still give
    the verdicts and certificates of the references."""
    def no_rows(self, a, b):
        raise AssertionError("a row built for a ternary signature")
    monkeypatch.setattr(Extender, "row", no_rows)
    rng = random.Random(20000730)
    won = found = 0
    for A, B in seeded_pairs(60, 20000730, ternary=True):
        k = rng.randint(1, 3)
        assert Extender(A, B).rows is None
        assert ef_game(A, B, k, 1) == ef_game_reference(A, B, k, 1), (A, B, k)
        assert pebble_game(A, B, k, 1) == pebble_game_reference(A, B, k, 1), (A, B, k)
        h = find_homomorphism(A, B)
        assert h is None or is_homomorphism(h, A, B)
        won += ef_game(A, B, k, 1)[0]
        found += h is not None
    assert 5 < won < 55 and found > 5


def test_pebbled_rows_stay_non_zero():
    """After the fixpoint, the row of each pebbled element of each base still
    holds its partner: the kill worklist reads a base with no 0 row as good,
    and rows are ANDed for pebbled elements too."""
    checked = 0
    for (A, B), k in zip(seeded_pairs(200, 20181004), [2, 3, 4] * 70):
        width = len(B.universe)
        for base, rows in pebble_fixpoint(A, B, k).items():
            for x in range(len(A.universe)):
                partner = base >> x * width & ((1 << width) - 1)
                if partner:
                    assert rows[x] & partner, (A, B, k, base, x)
                    checked += 1
    assert checked > 2000


def test_fixpoint_extensions_calls_are_bounded(monkeypatch):
    """pebble_fixpoint(lin(15), lin(14), 4) calls `extensions` once per
    element for the start and once per neighbour of a for each distinct
    played pair (a, b), before it passes its cap; one call per row of each
    child base made 346,747."""
    calls, played = [0], set()
    real_extensions, real_row = structures.extensions, Extender.row

    def counted(*args, **kwargs):
        calls[0] += 1
        return real_extensions(*args, **kwargs)

    def row(self, a, b):
        played.add((a, b))
        return real_row(self, a, b)
    monkeypatch.setattr(structures, "extensions", counted)
    monkeypatch.setattr(Extender, "row", row)
    A, B = zoo.lin(15), zoo.lin(14)
    with pytest.raises(CapExceeded):
        pebble_fixpoint(A, B, 4)
    occ = occurrences(A)
    neighbours = {a: sum(x != a and (a, x) in occ for x in A.universe) for a in A.universe}
    assert len(played) <= len(A.universe) * len(B.universe)
    assert calls[0] <= len(A.universe) + sum(neighbours[a] for a, _ in played)
    assert calls[0] <= 15 + 15 * 14 * 14
