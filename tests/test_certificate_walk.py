"""Differential tests of the certificate walk: `strategy.certificate` asks the
rules' `after` for the positions Duplicator answers from next, and must fill
the certificate that `oracles.certificate_by_steps` fills by stepping every
answer to the position after it and reading those positions off it."""

import json
import random
from itertools import combinations, product

import pytest
from oracles import answering, certificate_by_steps, pebble_bases, relabelled, stepped

from gamecomonads import modal, strategy, zoo
from gamecomonads.ef import EfRules, ef_game
from gamecomonads.modal import ModalRules, modal_game
from gamecomonads.pebble import PebbleRules, pebble_game
from gamecomonads.structures import PointedStructure, validate_structure

SOLVERS = {"ef": ef_game, "pebble": pebble_game, "modal": modal_game}
KS = (1, 2, 3, 4)


def random_structure(rng: random.Random, prefix: str):
    """At most 5 elements, one binary and one unary relation."""
    u = [f"{prefix}{i}" for i in range(rng.randint(1, 5))]
    return validate_structure({"E": 2, "P": 1}, u, {
        "E": [[x, y] for x in u for y in u if rng.random() < 0.3],
        "P": [[x] for x in u if rng.random() < 0.5]})


def _pairs():
    """Seeded random pairs, each also against a relabelled copy of itself so
    that most games are won, and every pair of some `zoo` families."""
    rng = random.Random(26)
    out = []
    for _ in range(12):
        A = random_structure(rng, "x")
        out += [(A, random_structure(rng, rng.choice("xy"))), (A, relabelled(rng, A))]
    family = [zoo.lin(3), zoo.lin(4), zoo.cycle(4), zoo.path(4), zoo.clique(3), zoo.loop()]
    return out + [(A, B) for A in family for B in family]


PAIRS = _pairs()


@pytest.mark.parametrize("tier", [1, 2, 3])
@pytest.mark.parametrize("comonad", ["ef", "pebble", "modal"])
def test_walk_matches_the_stepping_reference(comonad, tier, monkeypatch):
    """The same certificate JSON, entry order included, on every won game."""
    solve, won, calls = SOLVERS[comonad], 0, []

    def reference(*args):
        calls.append(args)
        return certificate_by_steps(*args)
    for A, B in PAIRS:
        if comonad == "modal":
            A, B = PointedStructure(A, A.universe[0]), PointedStructure(B, B.universe[0])
        for k in KS:
            got = solve(A, B, k, tier)
            with monkeypatch.context() as m:
                for module in (strategy, modal):
                    m.setattr(module, "certificate", reference)
                want = solve(A, B, k, tier)
            assert json.dumps(got) == json.dumps(want), (comonad, tier, k, A, B)
            won += got[0]
    assert len(calls) == won >= 60, won


def test_pebble_after_is_the_bases_of_the_stepped_position():
    """`PebbleRules.after` gives `pebble_bases` of the position after the
    pair, in the same order, without the base answered from."""
    A, B = zoo.lin(4), zoo.lin(3)
    pairs, seen = list(product(A.universe, B.universe)), 0
    for k in KS:
        rules = PebbleRules(A, B, k, 1)
        for size in range(k):
            for chosen in combinations(pairs, size):
                if len({a for a, _ in chosen}) < size:
                    continue
                base = tuple(sorted(chosen))
                for x, y in pairs:
                    if any(a == x for a, _ in base):
                        continue  # Spoiler moves onto unpebbled elements only
                    want = [p for p in pebble_bases(stepped(rules, base, x, y), k) if p != base]
                    assert rules.after(base, (), x, y) == want, (k, base, x, y)
                    seen += 1
    assert seen > 1000, seen


def test_after_is_answering_at_the_stepped_position():
    """For ef and modal, `after` is the stepped position while it has rounds
    left, and nothing after the last round."""
    A = zoo.lin(3)
    P = zoo.kripke(["a", "b"], "a", {"t": [("a", "b"), ("b", "a")]})
    for k in KS:
        ef = EfRules(A, A, k, 1)
        for left in range(1, k + 1):
            pos = frozenset({("e0", "e0")}), left
            assert ef.after(pos, (), "e1", "e2") == answering(ef, stepped(ef, pos, "e1", "e2"))
        md = ModalRules(P, P, k, 2)
        for left in range(1, k + 1):
            pos = "a", "a", left
            assert md.after(pos, ("t",), "b", "b") == answering(md, stepped(md, pos, "b", "b"))
