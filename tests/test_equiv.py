import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings

from oracles import (all_digraphs, answers, bisim_approx, brute_bijection_game,
                     brute_bijection_round, brute_homomorphism_exists, brute_isomorphism_exists,
                     build_theta, lin_closed_form, lin_game_textbook, relabelled,
                     theta_fixpoint_oracle, wl_distinguishes)
from strategies import pointed_kripke_pairs, structure_pairs

from gamecomonads import modal, strategy, zoo
from gamecomonads.ef import ef_game
from gamecomonads.equiv import decide, verify_certificate
from gamecomonads.modal import modal_game
from gamecomonads.pebble import pebble_game
from gamecomonads.structures import (BoundExceeded, Extender, PointedStructure,
                                     validate_structure)


def test_mutual_existential_identity_all_tags():
    A = zoo.lin(2)
    for tag in ("ef", "pebble"):
        assert decide(tag, 1, A, A, 2)["equiv"]
    P = zoo.kripke_two_cycle()
    assert decide("modal", 1, P, P, 2)["equiv"]


def test_mutual_existential_lin23():
    # LIN(3) -> LIN(2) already fails at two rounds, so no mutual equivalence
    assert not decide("ef", 1, zoo.lin(2), zoo.lin(3), 2)["equiv"]
    assert decide("ef", 1, zoo.lin(2), zoo.lin(3), 1)["equiv"]


@pytest.mark.usefixtures("no_morphism")
def test_tier_one_certificates_hand_over_the_search_answers(monkeypatch):
    """ef and pebble tier 1 fill their certificates with the answers their
    searches found: no call of `strategy.answers` re-derives them.  Modal
    tier 1, answered by `answers` over its sweep's levels, shows that the
    calls are counted."""
    calls = []
    real = strategy.answers
    for module in (strategy, modal):
        monkeypatch.setattr(module, "answers", lambda *args: calls.append(args) or real(*args))
    for solve, S, k in ((ef_game, zoo.clique(6), 3), (ef_game, zoo.cycle(6), 2),
                        (pebble_game, zoo.clique(6), 3), (pebble_game, zoo.cycle(6), 2)):
        won, cert = solve(S, S, k, 1)
        assert won and cert["positions"] and verify_certificate(cert, S, S) == (True, None)
    assert calls == []
    assert modal_game(zoo.kripke_two_cycle(), zoo.kripke_loop(), 2, 1)[0] and calls


def test_answers_by_colour_match_the_kuhn_reference():
    """On seeded random colourings, the class answers are the reference
    answers over "same colour" at tiers 1-3 (tier 3: Kuhn's augmenting
    paths), including empty groups, classes missing on one side and classes
    of unequal sizes; tier-3 classes of two or more on each side show that
    the pairing within a class is the reference's."""
    rng = random.Random(25)
    names = [f"u{i}" for i in range(8)]
    met = dict.fromkeys(("empty", "missing", "unequal", "shared class"), 0)
    for _ in range(800):
        xs, ys = rng.sample(names, rng.randint(0, 6)), rng.sample(names, rng.randint(0, 6))
        palette = range(rng.randint(1, 4))
        cx = {x: rng.choice(palette) for x in xs}
        if rng.random() < 0.5 and len(xs) == len(ys):  # the same multiset of colours
            cy = dict(zip(ys, rng.sample(list(cx.values()), len(xs))))
        else:
            cy = {y: rng.choice(palette) for y in ys}
        for tier in (1, 2, 3):
            expected = answers(tier, xs, ys, lambda x, y: cx[x] == cy[y])
            assert strategy.answers_by_colour(tier, xs, ys, cx, cy) == expected, (tier, cx, cy)
        met["empty"] += not xs or not ys
        met["missing"] += set(cx.values()) != set(cy.values())
        met["unequal"] += (set(cx.values()) == set(cy.values())
                           and sorted(cx.values()) != sorted(cy.values()))
        met["shared class"] += expected is not None and any(
            list(cx.values()).count(c) > 1 for c in cx.values())
    assert min(met.values()) >= 20, met


def test_mutual_existential_certificates_round_trip():
    A, B = zoo.edge2(), zoo.path(3)
    for tag in ("ef", "pebble"):
        v = decide(tag, 1, A, B, 2)
        verdict, cert = v["equiv"], v["certificate"]
        assert verdict and cert["forward"] and cert["backward"]


@pytest.mark.usefixtures("no_morphism")
def test_back_and_forth_identity():
    A = zoo.lin(3)
    verdict, cert = ef_game(A, A, 2, 2)
    assert verdict and cert["positions"]


def test_back_and_forth_lin2_lin3():
    assert ef_game(zoo.lin(2), zoo.lin(3), 1, 2, build_certificate=False)[0]
    assert not ef_game(zoo.lin(2), zoo.lin(3), 2, 2, build_certificate=False)[0]


def test_back_and_forth_matches_textbook_lin_recursion():
    for m in range(1, 6):
        for n in range(1, 6):
            for k in (1, 2):
                engine = ef_game(zoo.lin(m), zoo.lin(n), k, 2, build_certificate=False)[0]
                assert engine == lin_game_textbook(m, n, k)
                assert engine == lin_closed_form(m, n, k)


def test_back_and_forth_modal_delegates_to_bisim():
    P, Q = zoo.kripke_loop(), zoo.kripke_two_cycle()
    for k in (1, 3):
        assert decide("modal", 2, P, Q, k)["equiv"] == bisim_approx(P, Q, k)


@pytest.mark.usefixtures("no_morphism")
def test_bijection_game_identity():
    A = zoo.lin(3)
    verdict, cert = ef_game(A, A, 2, 3)
    assert verdict
    assert cert["positions"][0]["bijection"]


def test_bijection_game_cardinality_rule():
    assert not ef_game(zoo.lin(2), zoo.lin(3), 1, 3)[0]
    assert not pebble_game(zoo.lin(2), zoo.lin(3), 1, 3)[0]


def test_bijection_game_loop_vs_empty():
    A = validate_structure({"R": 2}, ["a", "b", "c", "d"], {"R": [["a", "a"]]})
    B = validate_structure({"R": 2}, ["a", "b", "c", "d"], {"R": []})
    assert not ef_game(A, B, 1, 3, build_certificate=False)[0]
    assert not brute_bijection_round(A, B)


@settings(max_examples=20)
@given(structure_pairs(max_size=3))
def test_bijection_one_round_matches_bruteforce(pair):
    A, B = pair
    assert ef_game(A, B, 1, 3, build_certificate=False)[0] == \
        brute_bijection_round(A, B)


def test_pebble_bijection_degree_multisets():
    A = validate_structure({"R": 2}, ["x", "y", "z"], {"R": [["x", "y"], ["x", "z"]]})
    B = validate_structure({"R": 2}, ["x", "y", "z"], {"R": [["x", "y"], ["y", "z"]]})
    assert not pebble_game(A, B, 2, 3, build_certificate=False)[0]


@settings(max_examples=20)
@given(structure_pairs(max_size=4, max_arity=2))
def test_bijection_game_matches_permutation_enumeration(pair):
    A, B = pair
    for k in (1, 2):
        assert ef_game(A, B, k, 3, build_certificate=False)[0] == \
            brute_bijection_game(A, B, k)


def test_two_pebble_counting_game_matches_color_refinement():
    # 1-WL indistinguishability coincides with the 2-pebble counting game on
    # undirected graphs; checked on random symmetric pairs of equal size
    rng = random.Random(21)
    agree = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        pair = []
        for _ in range(2):
            universe = [f"v{i}" for i in range(n)]
            tups = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.45:
                        tups += [[universe[i], universe[j]], [universe[j], universe[i]]]
            pair.append(validate_structure({"R": 2}, universe, {"R": tups}))
        A, B = pair
        game = pebble_game(A, B, 2, 3, build_certificate=False)[0]
        wl = not wl_distinguishes(A, B)
        assert game == wl
        agree += 1
    assert agree == 60


def test_cliques_need_three_resources_to_separate():
    # without an order to walk, two pebbles or two rounds cannot count a
    # clique; three of either pin three distinct vertices
    K2, K3 = zoo.clique(2), zoo.clique(3)
    assert ef_game(K2, K3, 2, 2, build_certificate=False)[0]
    assert not ef_game(K2, K3, 3, 2, build_certificate=False)[0]
    assert pebble_game(K2, K3, 2, 2, build_certificate=False)[0]
    assert not pebble_game(K2, K3, 3, 2, build_certificate=False)[0]


def test_pebble_back_and_forth_counts_along_linear_orders():
    # two pebbles walk a chain by reuse, so unequal orders separate at k=2;
    # a single pebble sees nothing but one element at a time
    for m in (2, 3):
        for n in (3, 4):
            expected = (m == n)
            assert pebble_game(zoo.lin(m), zoo.lin(n), 2, 2,
                               build_certificate=False)[0] == expected
            assert pebble_game(zoo.lin(m), zoo.lin(n), 1, 2, build_certificate=False)[0]


def test_theta_empty_set_is_fixpoint():
    theta, _, _ = build_theta(zoo.lin(2), zoo.lin(2), 1)
    assert theta(frozenset()) == frozenset()


def test_theta_identity_tiny():
    A = zoo.loop()
    assert theta_fixpoint_oracle(A, A, 1)


def test_theta_lin2_lin3():
    assert not theta_fixpoint_oracle(zoo.lin(2), zoo.lin(3), 2)
    assert theta_fixpoint_oracle(zoo.lin(2), zoo.lin(3), 1)


def test_theta_bound_gate():
    with pytest.raises(BoundExceeded):
        theta_fixpoint_oracle(zoo.lin(5), zoo.lin(5), 3, max_functions=100)


def test_theta_agrees_with_back_and_forth_on_digraphs():
    digraphs = all_digraphs(2)
    for A in digraphs[:6]:
        for B in digraphs[:6]:
            for k in (1, 2):
                assert theta_fixpoint_oracle(A, B, k) == \
                    ef_game(A, B, k, 2, build_certificate=False)[0]


# tier ordering and strictness fixtures

def test_tier_strictness_ef():
    A, B = zoo.edge2(), zoo.path(3)
    assert decide("ef", 1, A, B, 2)["equiv"]
    assert not ef_game(A, B, 2, 2, build_certificate=False)[0]
    # tier 2 holds, tier 3 fails: same rank-1 theory, different cardinality
    C = validate_structure({"R": 2}, ["a"], {"R": []})
    D = validate_structure({"R": 2}, ["a", "b"], {"R": []})
    assert ef_game(C, D, 1, 2, build_certificate=False)[0]
    assert not ef_game(C, D, 1, 3)[0]


def test_tier_strictness_pebble():
    A, B = zoo.edge2(), zoo.path(3)
    assert decide("pebble", 1, A, B, 2)["equiv"]
    assert not pebble_game(A, B, 2, 2, build_certificate=False)[0]
    K3, K4 = zoo.clique(3), zoo.clique(4)
    assert pebble_game(K3, K4, 2, 2, build_certificate=False)[0]
    assert not pebble_game(K3, K4, 2, 3)[0]


def test_tier_strictness_modal():
    A = zoo.kripke(["r", "x", "y"], "r", {"t": [("r", "x"), ("r", "y")]}, {"p": ["x"]})
    B = zoo.kripke(["r", "x"], "r", {"t": [("r", "x")]}, {"p": ["x"]})
    assert decide("modal", 1, A, B, 2)["equiv"]
    assert not decide("modal", 2, A, B, 1)["equiv"]
    one = zoo.kripke(["r", "x"], "r", {"t": [("r", "x")]})
    two = zoo.kripke(["r", "x", "y"], "r", {"t": [("r", "x"), ("r", "y")]})
    assert decide("modal", 2, one, two, 2)["equiv"]
    assert not modal_game(one, two, 1, 3, build_certificate=False)[0]


@settings(max_examples=15)
@given(structure_pairs(max_size=3))
def test_tier_ordering_ef_pebble(pair):
    A, B = pair
    for tag in ("ef", "pebble"):
        for k in (1, 2):
            tier3 = decide(tag, 3, A, B, k)["equiv"]
            tier2 = decide(tag, 2, A, B, k)["equiv"]
            tier1 = decide(tag, 1, A, B, k)["equiv"]
            if tier3:
                assert tier2
            if tier2:
                assert tier1


@settings(max_examples=15)
@given(pointed_kripke_pairs())
def test_tier_ordering_modal(pair):
    P, Q = pair
    for k in (1, 2):
        tier3 = decide("modal", 3, P, Q, k)["equiv"]
        tier2 = decide("modal", 2, P, Q, k)["equiv"]
        tier1 = decide("modal", 1, P, Q, k)["equiv"]
        if tier3:
            assert tier2
        if tier2:
            assert tier1


@settings(max_examples=10)
@given(structure_pairs(max_size=3))
def test_tiers_reflexive_symmetric(pair):
    A, B = pair
    for tag in ("ef", "pebble"):
        for tier in (1, 2, 3):
            assert decide(tag, tier, A, A, 2)["equiv"]
            assert decide(tag, tier, A, B, 2)["equiv"] == \
                decide(tag, tier, B, A, 2)["equiv"]


@settings(max_examples=15)
@given(structure_pairs(max_size=3))
def test_tiers_monotone_nonincreasing_in_k(pair):
    A, B = pair
    for tag in ("ef", "pebble"):
        for tier in (1, 2):
            if decide(tag, tier, A, B, 2)["equiv"]:
                assert decide(tag, tier, A, B, 1)["equiv"]


def test_decide_verdict_shape():
    v = decide("ef", 2, zoo.lin(2), zoo.lin(2), 2)
    assert set(v) == {"equiv", "tier", "comonad", "k", "certificate"}
    assert v["equiv"] is True and v["comonad"] == "ef" and v["tier"] == 2


@pytest.mark.parametrize("tag, tier, named", [("rank", 2, "'rank'"), ("ef", 0, "0"),
                                              ("ef", 4, "4")], ids=["tag", "tier0", "tier4"])
def test_decide_rejects_unknown_tag_and_tier(tag, tier, named):
    A = zoo.lin(2)
    with pytest.raises(ValueError, match=named):
        decide(tag, tier, A, A, 2)


def test_decide_modal_on_plain_structures_raises_value_error():
    A = zoo.kripke_two_cycle().base
    with pytest.raises(ValueError, match="modal games need pointed structures"):
        decide("modal", 2, A, A, 2)


def test_verify_modal_certificate_on_plain_structures_is_rejected():
    P = zoo.kripke_two_cycle()
    cert = decide("modal", 2, P, P, 2)["certificate"]
    assert verify_certificate(cert, P.base, P.base) == (
        False, "the modal games need pointed structures")


@pytest.mark.parametrize("tag", ["ef", "pebble"])
def test_verify_ef_and_pebble_certificates_on_pointed_structures_is_rejected(tag):
    P = zoo.kripke_two_cycle()
    cert = decide(tag, 2, P.base, P.base, 2)["certificate"]
    assert verify_certificate(cert, P, P) == (False, f"the {tag} games need plain structures")


# winning-set predicates and certificate verifiers

def test_winning_set_predicates():
    from oracles import ef_winning_position, modal_winning_position, pebble_winning_position
    E = zoo.edge()
    assert ef_winning_position(("a", "b"), ("a", "b"), E, E)
    assert not ef_winning_position(("a", "b"), ("b", "a"), E, E)
    assert pebble_winning_position(((1, "a"), (2, "b")), ((1, "a"), (2, "b")), E, E)
    assert not pebble_winning_position(((1, "a"),), ((2, "a"),), E, E)
    # pebble positions care about last placements only
    assert pebble_winning_position(((1, "a"), (1, "b")), ((1, "b"), (1, "b")), E, E)
    P = zoo.kripke(["a", "b"], "a", {"t": [("a", "b")]}, {"p": ["b"]})
    assert modal_winning_position(("a", "t", "b"), ("a", "t", "b"), P, P)
    assert not modal_winning_position(("a", "t", "b"), ("a", "t", "a"), P, P)


def test_all_emitted_certificates_verify():
    A = zoo.lin(2)
    for tier in (1, 2, 3):
        for tag in ("ef", "pebble"):
            v = decide(tag, tier, A, A, 2)
            assert v["equiv"]
            cert = v["certificate"]
            if tier == 1:
                for side, (src, dst) in (("forward", (A, A)), ("backward", (A, A))):
                    ok, msg = verify_certificate(cert[side], src, dst)
                    assert ok, (tag, tier, side, msg)
            else:
                ok, msg = verify_certificate(cert, A, A)
                assert ok, (tag, tier, msg)
    P = zoo.kripke_two_cycle()
    for side in ("forward", "backward"):
        ok, msg = verify_certificate(decide("modal", 1, P, P, 2)["certificate"][side], P, P)
        assert ok, (side, msg)
    for tier in (2, 3):
        v = decide("modal", tier, P, P, 2)
        ok, msg = verify_certificate(v["certificate"], P, P)
        assert ok, (tier, msg)


def _entry(cert, **fields):
    return next(e for e in cert["positions"] if all(e[f] == v for f, v in fields.items()))


def _answer(entry, name: str, x: str) -> str:
    """The response recorded under `name` to the move x at an entry."""
    return dict(entry[name])[x]


@pytest.mark.usefixtures("no_morphism")
def test_back_and_forth_certificate_rejects_tampering():
    A = zoo.lin(2)
    verdict, cert = ef_game(A, A, 2, 2)
    root = _entry(cert, pairs=[])
    assert root["forth"][0] == ["e0", "e0"]
    root["forth"][0] = ["e0", "e1"]
    ok, msg = verify_certificate(cert, A, A)
    assert not ok


@pytest.mark.usefixtures("no_morphism")
def test_pebble_bijection_certificate_rejects_tampering():
    A = zoo.lin(2)
    verdict, cert = pebble_game(A, A, 2, 3)
    assert verdict
    cert["positions"][0]["bijection"] = [["e0", "e0"], ["e1", "e0"]]
    ok, msg = verify_certificate(cert, A, A)
    assert not ok and "bijection" in msg


def test_modal_bf_certificate_verifies_and_rejects_tampering():
    P, Q = zoo.kripke_loop(), zoo.kripke_two_cycle()
    verdict, cert = modal_game(P, Q, 3, 2)
    assert verdict
    ok, msg = verify_certificate(cert, P, Q)
    assert ok, msg
    cert["positions"] = cert["positions"][1:]
    ok, msg = verify_certificate(cert, P, Q)
    assert not ok


def test_modal_existential_certificate_rejects_tampering():
    P = zoo.kripke(["a", "b", "c"], "a", {"t": [("a", "b"), ("a", "c"), ("b", "a")]},
                   {"p": ["b"]})
    v = decide("modal", 1, P, P, 2)
    verdict, cert = v["equiv"], v["certificate"]
    assert verdict
    fwd = cert["forward"]
    assert (fwd["comonad"], fwd["game"], fwd["k"]) == ("modal", "existential", 2)
    assert verify_certificate(fwd, P, P) == (True, None)
    tampered = {
        (("a", "a"), 2, "b"): ("c", "propositions"),        # p holds at b, not at c
        (("b", "b"), 1, "a"): ("c", "not a t-successor"),   # b -> a only
    }
    for (worlds, depth, x), (response, reason) in tampered.items():
        bad = {**fwd, "positions": [
            dict(e, forth=[[lab, u, response if u == x else v] for lab, u, v in e["forth"]])
            if (tuple(e["worlds"]), e["depth_left"]) == (worlds, depth) else e
            for e in fwd["positions"]]}
        ok, msg = verify_certificate(bad, P, P)
        assert not ok and reason in msg, (worlds, msg)
    unanswered = {**fwd, "positions": [e for e in fwd["positions"] if e["worlds"] != ["a", "a"]]}
    ok, msg = verify_certificate(unanswered, P, P)
    assert not ok and "no answers recorded" in msg
    short = {**fwd, "positions": [e for e in fwd["positions"] if e["depth_left"] == 2]}
    ok, msg = verify_certificate(short, P, P)
    assert not ok and "no answers recorded" in msg


# the one verifier, one rule at a time

def _tampered(cert, position: dict, name: str, edit):
    """A copy of cert whose answers `name` at the given position go through edit."""
    entries = [dict(e, **{name: edit(list(e[name]))})
               if all(e[f] == v for f, v in position.items()) else e
               for e in cert["positions"]]
    return {**cert, "positions": entries}


@pytest.mark.usefixtures("no_morphism")
def test_verifier_rejects_missing_left_answer():
    A = zoo.lin(2)
    cert = ef_game(A, A, 2, 2)[1]
    bad = _tampered(cert, {"pairs": []}, "forth", lambda ans: [a for a in ans if a[0] != "e0"])
    ok, msg = verify_certificate(bad, A, A)
    assert not ok and msg.startswith("no forth answer to 'e0'"), msg


@pytest.mark.usefixtures("no_morphism")
def test_verifier_rejects_missing_right_answer_at_tier_2():
    A = zoo.lin(2)
    cert = ef_game(A, A, 2, 2)[1]
    bad = _tampered(cert, {"pairs": []}, "back", lambda ans: ans[:1])
    ok, msg = verify_certificate(bad, A, A)
    assert not ok and msg.startswith("no back answer to 'e1'"), msg


@pytest.mark.usefixtures("no_morphism")
def test_verifier_rejects_losing_response():
    # answers are recorded on unpebbled elements only, so the order needs a
    # third element for a losing one: e2 -> e0 next to e1 -> e1
    A = zoo.lin(3)
    cert = ef_game(A, A, 2, 2)[1]
    assert _entry(cert, pairs=[["e1", "e1"]])["forth"] == [["e0", "e0"], ["e2", "e2"]]
    bad = _tampered(cert, {"pairs": [["e1", "e1"]]}, "forth",
                    lambda ans: [["e0", "e0"], ["e2", "e0"]])
    ok, msg = verify_certificate(bad, A, A)
    assert not ok and "('e2', 'e0')" in msg and "loses" in msg, msg
    assert '{"pairs": [["e1", "e1"]], "rounds_left": 1}' in msg, msg
    assert "is not a partial isomorphism" in msg, msg


# Answers that lose two pairs deep: the only broken tuple, (e3, e4) of the
# order mapped to (e3, e2), goes through the pair just played.

DEEP = [["e1", "e1"], ["e3", "e3"]]


def _swap_e0_e2(ans):
    return [[x, {"e0": "e2", "e2": "e0"}.get(y, y)] for x, y in ans]


def _e4_to_e2(ans):
    return [[x, "e2" if x == "e4" else y] for x, y in ans]


@pytest.mark.parametrize("tier, name, edit, pair", [
    (2, "forth", _e4_to_e2, "('e4', 'e2')"),
    (3, "bijection", _swap_e0_e2, "('e0', 'e2')"),
])
@pytest.mark.usefixtures("no_morphism")
def test_verifier_rejects_losing_ef_answer_two_pairs_deep(tier, name, edit, pair):
    A = zoo.lin(5)
    cert = decide("ef", tier, A, A, 3)["certificate"]
    assert _answer(_entry(cert, pairs=DEEP), name, "e4") == "e4"
    bad = _tampered(cert, {"pairs": DEEP}, name, edit)
    ok, msg = verify_certificate(bad, A, A)
    assert not ok and pair in msg and "loses" in msg, msg
    assert '"pairs": [["e1", "e1"], ["e3", "e3"]]' in msg, msg
    assert "is not a partial isomorphism" in msg, msg


@pytest.mark.usefixtures("no_morphism")
def test_verifier_rejects_losing_ef_tier1_answer_two_pairs_deep():
    # the line e1 -> e1, e3 -> e3, then e4 -> e2 breaks the order
    A = zoo.lin(5)
    cert = decide("ef", 1, A, A, 3)["certificate"]["forward"]
    assert _answer(_entry(cert, pairs=[]), "forth", "e1") == "e1"
    assert _answer(_entry(cert, pairs=[["e1", "e1"]], rounds_left=2), "forth", "e3") == "e3"
    assert _answer(_entry(cert, pairs=DEEP), "forth", "e4") == "e4"
    bad = _tampered(cert, {"pairs": DEEP}, "forth", _e4_to_e2)
    ok, msg = verify_certificate(bad, A, A)
    assert not ok and "('e4', 'e2')" in msg and "loses" in msg, msg
    assert '"pairs": [["e1", "e1"], ["e3", "e3"]]' in msg, msg
    assert "is not a partial homomorphism" in msg, msg


@pytest.mark.parametrize("tier, name, edit, pair, kind", [
    (1, "forth", _e4_to_e2, "('e4', 'e2')", "homomorphism"),
    (2, "forth", _e4_to_e2, "('e4', 'e2')", "isomorphism"),
    (3, "bijection", _swap_e0_e2, "('e0', 'e2')", "isomorphism"),
])
@pytest.mark.usefixtures("no_morphism")
def test_verifier_rejects_losing_pebble_answer_two_pairs_deep(tier, name, edit, pair, kind):
    A = zoo.lin(5)
    cert = decide("pebble", tier, A, A, 3)["certificate"]
    cert = cert["forward"] if tier == 1 else cert
    assert _answer(_entry(cert, base=DEEP), name, "e4") == "e4"
    bad = _tampered(cert, {"base": DEEP}, name, edit)
    ok, msg = verify_certificate(bad, A, A)
    assert not ok and pair in msg and "loses" in msg, msg
    assert '{"base": [["e1", "e1"], ["e3", "e3"]]}' in msg, msg
    assert f"is not a partial {kind}" in msg, msg


@pytest.mark.parametrize("tier, reason", [
    (1, "propositions of 'c' do not hold at 'd'"),
    (2, "'c' and 'd' differ in their propositions"),
])
def test_verifier_rejects_losing_modal_answer_in_the_last_round(tier, reason):
    # a -> b -> c, d with p at c: at depth 1 from (b, b) the answer d to c
    # loses, and no position is answered from after it
    P = zoo.kripke(["a", "b", "c", "d"], "a", {"t": [("a", "b"), ("b", "c"), ("b", "d")]},
                   {"p": ["c"]})
    cert = decide("modal", tier, P, P, 2)["certificate"]
    cert = cert["forward"] if tier == 1 else cert
    at = {"worlds": ["b", "b"], "depth_left": 1}
    assert ["t", "c", "c"] in _entry(cert, **at)["forth"]
    bad = _tampered(cert, at, "forth",
                    lambda ans: [[lab, u, "d" if u == "c" else v] for lab, u, v in ans])
    ok, msg = verify_certificate(bad, P, P)
    assert not ok and "('c', 'd')" in msg and "loses" in msg, msg
    assert '{"depth_left": 1, "worlds": ["b", "b"]}' in msg and reason in msg, msg


def _back_to(y: str, x: str):
    """An edit of back answers [*group, y', x']: y answered with x."""
    return lambda ans: [[*a[:-1], x] if a[-2] == y else a for a in ans]


@pytest.mark.parametrize("comonad, A, at, edit, pair", [
    ("ef", zoo.lin(3), {"pairs": [["e1", "e1"]]}, _back_to("e2", "e0"), "('e0', 'e2')"),
    ("pebble", zoo.lin(3), {"base": [["e1", "e1"]]}, _back_to("e2", "e0"), "('e0', 'e2')"),
    ("modal", zoo.kripke(["a", "b", "c"], "a", {"t": [("a", "b"), ("a", "c")]}, {"p": ["c"]}),
     {"worlds": ["a", "a"], "depth_left": 1}, _back_to("c", "b"), "('b', 'c')"),
])
@pytest.mark.usefixtures("no_morphism")
def test_verifier_checks_a_back_answer_that_no_forth_answer_repeats(comonad, A, at, edit, pair):
    # the replay checks a pair answered both forth and back once, so a back
    # answer that is a different pair from the forth answers must still lose
    cert = decide(comonad, 2, A, A, 1 if comonad == "modal" else 2)["certificate"]
    entry = _entry(cert, **at)
    assert all(a[-2] == a[-1] for a in entry["forth"] + entry["back"])  # all win
    bad = _tampered(cert, at, "back", edit)
    assert _entry(bad, **at)["forth"] == entry["forth"]
    ok, msg = verify_certificate(bad, A, A)
    assert not ok and f"the answer {pair} at " in msg and " loses: " in msg, msg


@pytest.mark.usefixtures("no_morphism")
def test_verifier_rejects_non_bijection_at_tier_3():
    A = zoo.lin(2)
    cert = ef_game(A, A, 2, 3)[1]
    bad = _tampered(cert, {"pairs": []}, "bijection", lambda ans: [["e0", "e0"], ["e1", "e0"]])
    ok, msg = verify_certificate(bad, A, A)
    assert not ok and "is not a bijection" in msg, msg


def test_verifier_rejects_modal_response_off_the_label():
    P = zoo.kripke(["a", "b", "c"], "a", {"t": [("a", "b"), ("b", "c")]})
    cert = modal_game(P, P, 2, 2)[1]
    assert _entry(cert, worlds=["a", "a"])["forth"] == [["t", "b", "b"]]
    bad = _tampered(cert, {"worlds": ["a", "a"]}, "forth", lambda ans: [["t", "b", "c"]])
    ok, msg = verify_certificate(bad, P, P)
    assert not ok and "response 'c' to 'b'" in msg and "not a t-successor of 'a'" in msg, msg


@pytest.mark.usefixtures("no_morphism")
def test_verifier_rejects_pebble_base_without_answers():
    A = zoo.lin(2)
    cert = pebble_game(A, A, 2, 2)[1]
    assert _entry(cert, base=[["e0", "e0"]])
    bad = {**cert, "positions": [e for e in cert["positions"] if e["base"] != [["e0", "e0"]]]}
    ok, msg = verify_certificate(bad, A, A)
    assert not ok and 'no answers recorded at {"base": [["e0", "e0"]]}' in msg, msg


def test_verifier_rejects_other_shapes():
    A = zoo.lin(2)
    cert = pebble_game(A, A, 2, 2)[1]
    ok, msg = verify_certificate({k: v for k, v in cert.items() if k != "shape"}, A, A)
    assert not ok and "shape" in msg


def _without(field):
    return lambda cert: {f: v for f, v in cert.items() if f != field}


def _each_entry(**fields):
    return lambda cert: {**cert, "positions": [dict(e, **fields) for e in cert["positions"]]}


@pytest.mark.parametrize("edit, reason", [
    (_without("k"), "k is not an int"),
    (lambda cert: {**cert, "k": "2"}, "k is not an int"),
    (lambda cert: {**cert, "k": 2.7}, "k is not an int"),
    (lambda cert: {**cert, "k": True}, "k is not an int"),
    (_without("positions"), "positions are not a list of objects"),
    (lambda cert: {**cert, "positions": [5]}, "positions are not a list of objects"),
    (lambda cert: [cert], "not an object"),
    (lambda cert: {**cert, "comonad": ["ef"]}, "unknown certificate kind"),
    (_each_entry(forth=5), "forth answers at"),
    (_each_entry(forth=[5]), "forth answers at"),
    (_each_entry(forth=[["e0"]]), "forth answers at"),
    (_each_entry(back=[[["e0"], "e0"]]), "back answers at"),
], ids=["no-k", "k-str", "k-float", "k-bool", "no-positions", "entry-int", "cert-list",
        "comonad-list", "answers-int", "answer-int", "answer-short", "answer-nested"])
@pytest.mark.usefixtures("no_morphism")
def test_verifier_rejects_malformed_certificates(edit, reason):
    A = zoo.lin(2)
    cert = ef_game(A, A, 2, 2)[1]
    ok, msg = verify_certificate(edit(cert), A, A)
    assert not ok and reason in msg, msg



@pytest.mark.parametrize("k", [0, -3])
@pytest.mark.parametrize("game", ["existential", "back-and-forth", "bijection"])
@pytest.mark.parametrize("comonad", ["ef", "pebble", "modal"])
def test_verifier_rejects_k_below_one(comonad, game, k):
    """Every solver refuses k < 1, and so does the verifier, even for a
    certificate with no positions that would otherwise verify."""
    A, B = ((zoo.kripke_chain(2), zoo.kripke_chain(3)) if comonad == "modal"
            else (zoo.lin(2), zoo.lin(3)))
    cert = {"comonad": comonad, "game": game, "k": k, "shape": "positions", "positions": []}
    assert verify_certificate(cert, A, B) == (False, f"the certificate's k is {k}, below 1")

@pytest.mark.parametrize("tier", [1, 2, 3])
@pytest.mark.parametrize("comonad", ["ef", "pebble", "modal"])
def test_verifier_rejects_structures_of_different_signatures(comonad, tier):
    """A certificate checked against structures of another signature gets a
    verdict, not an exception, before any position is replayed."""
    A = validate_structure({"R": 2}, ["a", "b"], {"R": [["a", "b"]]})
    B = validate_structure({"E": 2}, ["a", "b"], {"E": [["a", "b"]]})
    if comonad == "modal":
        A, B = PointedStructure(A, "a"), PointedStructure(B, "a")
    cert = decide(comonad, tier, A, A, 2)["certificate"]
    cert = cert["forward"] if tier == 1 else cert
    want = (False, "signatures differ: {'R': 2} vs {'E': 2}")
    assert verify_certificate(cert, A, B) == want
    assert verify_certificate(cert, B, A)[1] == "signatures differ: {'E': 2} vs {'R': 2}"
    assert verify_certificate(cert, A, A) == (True, None)


# Spoiler moves only onto unpebbled elements, so certificates answer those
# alone; certificates that also answered each pebbled element with its
# partner must still verify.

def _random_structure(rng: random.Random, prefix: str):
    u = [f"{prefix}{i}" for i in range(rng.randint(1, 4))]
    return validate_structure({"E": 2, "P": 1}, u, {
        "E": [[x, y] for x in u for y in u if rng.random() < 0.35],
        "P": [[x] for x in u if rng.random() < 0.5]})


def _with_partners(cert):
    """cert with each pebbled element also answered by its partner."""
    entries = []
    for e in cert["positions"]:
        pairs = e["pairs"] if "pairs" in e else e["base"]
        partners = {"forth": [[a, b] for a, b in pairs], "back": [[b, a] for a, b in pairs],
                    "bijection": [[a, b] for a, b in pairs]}
        entries.append({f: sorted(v + partners[f]) if f in partners else v
                        for f, v in e.items()})
    return {**cert, "positions": entries}


@pytest.mark.usefixtures("no_morphism")
def test_certificates_answer_unpebbled_elements_only():
    rng = random.Random(20181019)
    won = 0
    for i in range(40):
        A = _random_structure(rng, "x")
        B = relabelled(rng, A) if i % 2 else _random_structure(rng, rng.choice("xy"))
        for solve in (ef_game, pebble_game):
            for tier in (1, 2, 3):
                k = rng.randint(1, 5 if solve is ef_game else 3)
                verdict, cert = solve(A, B, k, tier)
                if not verdict:
                    continue
                won += 1
                for e in cert["positions"]:
                    pairs = e["pairs"] if "pairs" in e else e["base"]
                    xs, ys = {a for a, _ in pairs}, {b for _, b in pairs}
                    for x, y in e.get("forth", []) + e.get("bijection", []):
                        assert x not in xs and (tier == 1 or y not in ys), (A, B, k, tier, e)
                    for y, x in e.get("back", []):
                        assert x not in xs and y not in ys, (A, B, k, tier, e)
                assert verify_certificate(cert, A, B) == (True, None), (A, B, k, tier)
                assert verify_certificate(_with_partners(cert), A, B) == (True, None), \
                    (A, B, k, tier)
    assert won > 100



# An entry counts only at the position whose `to_json` gives back its exact
# fields: unsorted or repeated pairs, a bool or float for the rounds or depth
# left and a pair of worlds of the wrong length are never read, so the
# position they stand for has no answers recorded.

TWO = [["e0", "e0"], ["e1", "e1"]]
NOT_CLOSED = "strategy not closed: no answers recorded at "


def _edited(cert, change):
    """A copy of cert with `change` applied to a copy of each entry."""
    entries = [dict(e) for e in cert["positions"]]
    for e in entries:
        change(e)
    return {**cert, "positions": entries}


@pytest.mark.parametrize("change, at", [
    (lambda e: e.update(pairs=TWO[::-1]) if e["pairs"] == TWO else None,
     '{"pairs": [["e0", "e0"], ["e1", "e1"]], "rounds_left": 1}'),
    (lambda e: e.update(pairs=e["pairs"] * 2) if e["pairs"] == TWO[:1] else None,
     '{"pairs": [["e0", "e0"]], "rounds_left": 2}'),
    (lambda e: e.update(rounds_left=True) if e["pairs"] == TWO else None,
     '{"pairs": [["e0", "e0"], ["e1", "e1"]], "rounds_left": 1}'),
    (lambda e: e.update(rounds_left=1.0) if e["pairs"] == TWO else None,
     '{"pairs": [["e0", "e0"], ["e1", "e1"]], "rounds_left": 1}'),
])
@pytest.mark.usefixtures("no_morphism")
def test_verifier_reads_only_canonical_ef_entries(change, at):
    A = zoo.lin(3)
    cert = ef_game(A, A, 3, 2)[1]
    assert verify_certificate(_edited(cert, change), A, A) == (False, NOT_CLOSED + at)


@pytest.mark.parametrize("change, at", [
    (lambda e: e.update(base=TWO[::-1]) if e["base"] == TWO else None,
     '{"base": [["e0", "e0"], ["e1", "e1"]]}'),
    (lambda e: e.update(base=e["base"] * 2) if e["base"] == TWO[:1] else None,
     '{"base": [["e0", "e0"]]}'),
])
@pytest.mark.usefixtures("no_morphism")
def test_verifier_reads_only_canonical_pebble_entries(change, at):
    A = zoo.lin(3)
    cert = pebble_game(A, A, 3, 2)[1]
    assert verify_certificate(_edited(cert, change), A, A) == (False, NOT_CLOSED + at)


@pytest.mark.parametrize("fields", [{"depth_left": True}, {"depth_left": 1.0},
                                    {"worlds": ["b", "b", "b"]}])
def test_verifier_reads_only_canonical_modal_entries(fields):
    P = zoo.kripke(["a", "b", "c"], "a", {"t": [("a", "b"), ("b", "c")]})
    cert = modal_game(P, P, 2, 2)[1]
    bad = _edited(cert, lambda e: e.update(fields) if e["worlds"] == ["b", "b"] else None)
    assert verify_certificate(bad, P, P) == (
        False, NOT_CLOSED + '{"depth_left": 1, "worlds": ["b", "b"]}')


def test_verifier_reads_the_last_of_duplicate_entries():
    P = zoo.kripke(["a", "b", "c"], "a", {"t": [("a", "b"), ("b", "c")]})
    cert = modal_game(P, P, 2, 2)[1]
    bad = {**cert["positions"][0], "forth": [["t", "b", "c"]]}
    assert verify_certificate({**cert, "positions": cert["positions"] + [bad]}, P, P) == (
        False, 'response \'c\' to \'b\' at {"depth_left": 2, "worlds": ["a", "a"]} '
               "is not a t-successor of 'a'")
    assert verify_certificate({**cert, "positions": [bad] + cert["positions"]}, P, P) == (
        True, None)


# Rounds or depth left are an upper bound: one entry stands for its key (the
# pair set, the pair of worlds) at any rounds left up to its own.  Each game
# below is won at 3 rounds, and its answers at the start change between 1 and
# 3 rounds left.

LEFT = {"ef": "rounds_left", "modal": "depth_left"}
BOUND_GAMES = [(comonad, tier) for comonad in ("ef", "modal") for tier in (1, 2, 3)]


def _bound_game(comonad: str, tier: int, k: int):
    if comonad == "ef":
        A = zoo.lin(5)
        return A, A, ef_game(A, A, k, tier)[1]
    P = zoo.kripke(["a", "d", "b", "c"], "a", {"t": [("a", "d"), ("a", "b"), ("b", "c")]})
    return P, P, modal_game(P, P, k, tier)[1]


@pytest.mark.usefixtures("no_morphism")
@pytest.mark.parametrize("comonad, tier", BOUND_GAMES)
def test_verifier_rejects_an_entry_one_round_short(comonad, tier):
    A, B, cert = _bound_game(comonad, tier, 3)
    left = LEFT[comonad]
    assert verify_certificate(cert, A, B) == (True, None)
    for i, entry in enumerate(cert["positions"]):
        short = {**entry, left: entry[left] - 1}
        bad = {**cert, "positions": cert["positions"][:i] + [short] + cert["positions"][i + 1:]}
        at = json.dumps({f: v for f, v in entry.items() if f in ("pairs", "worlds", left)},
                        sort_keys=True)
        assert verify_certificate(bad, A, B) == (False, NOT_CLOSED + at)


@pytest.mark.usefixtures("no_morphism")
@pytest.mark.parametrize("comonad, tier", BOUND_GAMES)
def test_verifier_rejects_rounds_raised_past_their_answers(comonad, tier):
    A, B, cert = _bound_game(comonad, tier, 3)
    left, start = LEFT[comonad], cert["positions"][0]
    weak = _bound_game(comonad, tier, 1)[2]["positions"][0]
    assert weak != {**start, left: 1}  # the answers that win one round differ
    # the later of two entries counts on a tie, else the one with more rounds
    tie = cert["positions"] + [{**weak, left: start[left]}]
    more = [{**weak, left: start[left] + 1}] + cert["positions"]
    for positions in (tie, more):
        ok, msg = verify_certificate({**cert, "positions": positions}, A, B)
        assert not ok and ("loses" in msg or "no answers recorded" in msg), msg


@pytest.mark.usefixtures("no_morphism")
@pytest.mark.parametrize("comonad, tier", BOUND_GAMES)
def test_verifier_accepts_an_entry_per_rounds_left(comonad, tier):
    """The layout that repeats each entry at every lower rounds left."""
    A, B, cert = _bound_game(comonad, tier, 3)
    left = LEFT[comonad]
    old = [{**e, left: r} for e in cert["positions"] for r in range(e[left], 0, -1)]
    assert len(old) > len(cert["positions"])
    assert verify_certificate({**cert, "positions": old}, A, B) == (True, None)


# A won ef or pebble game is certified by a morphism of A into B when the
# search finds one: a homomorphism at tier 1, an isomorphism at tiers 2-3.
# Its verifier reads the structures alone.

def _morphism(comonad, tier, A, B, k=2):
    verdict = decide(comonad, tier, A, B, k)
    cert = verdict["certificate"]["forward"] if tier == 1 else verdict["certificate"]
    assert verdict["equiv"] and cert["shape"] == ("homomorphism" if tier == 1 else "isomorphism")
    return cert


def _remap(**pairs):
    return lambda cert: {**cert, "map": {**cert["map"], **pairs}}


def test_morphism_certificates_carry_the_first_map_and_verify():
    cert = _morphism("ef", 1, zoo.lin(3), zoo.lin(4))
    assert cert == {"comonad": "ef", "game": "existential", "k": 2, "shape": "homomorphism",
                    "map": {"e0": "e0", "e1": "e1", "e2": "e2"}}
    C = relabelled(random.Random(3), zoo.cycle(5))
    for comonad in ("ef", "pebble"):
        for tier in (2, 3):
            cert = _morphism(comonad, tier, zoo.cycle(5), C)
            assert cert["game"] == strategy.GAMES[tier - 1] and cert["comonad"] == comonad
            assert verify_certificate(cert, zoo.cycle(5), C) == (True, None)
            assert verify_certificate(cert, C, zoo.cycle(5))[0] is False


@pytest.mark.parametrize("edit, reason", [
    (_remap(e2="e0"), "the homomorphism breaks R['e0', 'e2'] of the source"),
    (lambda cert: {**cert, "map": {"e0": "e0", "e1": "e1"}}, "leaves out the source's 'e2'"),
    (_remap(z="e0"), "maps a non-element of the source, 'z'"),
    (_remap(e1="z"), "takes a value outside the target, 'z'"),
    (_remap(e1=["e1"]), "map is not an object of element ids"),
    (lambda cert: {**cert, "map": [["e0", "e0"]]}, "map is not an object of element ids"),
    (lambda cert: {**cert, "game": "back-and-forth"},
     "the ef back-and-forth game takes no homomorphism certificate"),
    (lambda cert: {**cert, "game": "bijection"},
     "the ef bijection game takes no homomorphism certificate"),
    (lambda cert: {**cert, "k": "2"}, "k is not an int"),
    (lambda cert: {**cert, "k": True}, "k is not an int"),
    (lambda cert: {**cert, "k": 0}, "k is 0, below 1"),
    (lambda cert: {k: v for k, v in cert.items() if k != "map"}, "not an object of element ids"),
], ids=["broken-tuple", "missing", "extra-key", "outside", "value-list", "map-list",
        "hom-tier-2", "hom-tier-3", "k-str", "k-bool", "k-zero", "no-map"])
def test_verifier_rejects_tampered_homomorphisms(edit, reason):
    A, B = zoo.lin(3), zoo.lin(4)
    cert = _morphism("ef", 1, A, B)
    assert verify_certificate(cert, A, B) == (True, None)
    ok, msg = verify_certificate(edit(cert), A, B)
    assert not ok and reason in msg, msg


@pytest.mark.parametrize("edit, reason", [
    (_remap(v1="v0"), "the isomorphism is not injective"),
    (lambda cert: {**cert, "shape": "homomorphism"},
     "the pebble back-and-forth game takes no homomorphism certificate"),
    (_remap(z="v0"), "maps a non-element of the source, 'z'"),
    (lambda cert: {**cert, "map": {**cert["map"], "v0": "v1", "v1": "v0"}},
     "the isomorphism breaks R['v0', 'v3'] of the source"),
], ids=["non-injective", "hom-stamp", "extra-key", "broken-tuple"])
def test_verifier_rejects_tampered_isomorphisms(edit, reason):
    C = zoo.cycle(4)
    cert = _morphism("pebble", 2, C, C)
    ok, msg = verify_certificate(edit(cert), C, C)
    assert not ok and reason in msg, msg


def test_an_isomorphism_certifies_every_tier():
    """An isomorphism is a homomorphism both ways, so it is accepted at
    tier 1 too; a homomorphism is not accepted at tiers 2-3."""
    C = relabelled(random.Random(4), zoo.cycle(4))
    cert = _morphism("pebble", 2, zoo.cycle(4), C)
    for game in strategy.GAMES:
        assert verify_certificate({**cert, "game": game}, zoo.cycle(4), C) == (True, None)


def test_verifier_rejects_an_isomorphism_that_misses_a_tuple_or_an_element():
    """An injective homomorphism is not an isomorphism when the target has
    more tuples (its inverse breaks one) or more elements (it is not onto)."""
    edgeless = validate_structure({"R": 2}, ["a", "b"], {})
    edge = validate_structure({"R": 2}, ["a", "b"], {"R": [["a", "b"]]})
    cert = {"comonad": "ef", "game": "back-and-forth", "k": 1, "shape": "isomorphism",
            "map": {"a": "a", "b": "b"}}
    assert verify_certificate(cert, edgeless, edge) == (
        False, "the isomorphism breaks R['a', 'b'] of the target")
    assert verify_certificate(cert, edge, edge) == (True, None)
    three = validate_structure({"R": 2}, ["a", "b", "c"], {"R": [["a", "b"]]})
    assert verify_certificate(cert, edge, three) == (
        False, "the isomorphism is not onto the target")
    verdict = decide("ef", 2, edgeless, edge, 1)  # one round sees no pair: won, with no iso
    assert verdict["equiv"] and verdict["certificate"]["shape"] == "positions"


def test_modal_takes_no_morphism_certificate():
    P = zoo.kripke_two_cycle()
    for shape, game in (("homomorphism", "existential"), ("isomorphism", "bijection")):
        cert = {"comonad": "modal", "game": game, "k": 2, "shape": shape,
                "map": {a: a for a in P.base.universe}}
        assert verify_certificate(cert, P, P) == (
            False, f"the modal {game} game takes no {shape} certificate")


def _doubled(rng: random.Random, A):
    """A next to a relabelled copy of itself."""
    C = relabelled(rng, A)
    return validate_structure(dict(A.sig.relations), A.universe + C.universe,
                              {r: list(A.relations[r] | C.relations[r]) for r in A.relations})


def _moved(rng: random.Random, A):
    """A relabelled copy of A with one E edge between distinct elements moved
    onto another such pair, if there is one: often game-equivalent to A at
    small k, and seldom isomorphic to it."""
    C = relabelled(rng, A)
    edges = sorted(t for t in C.relations["E"] if t[0] != t[1])
    free = sorted((x, y) for x in C.universe for y in C.universe
                  if x != y and (x, y) not in C.relations["E"])
    if not (edges and free):
        return C
    E = C.relations["E"] - {rng.choice(edges)} | {rng.choice(free)}
    return validate_structure(dict(A.sig.relations), C.universe, {"E": E, "P": C.relations["P"]})


def test_morphism_certificates_match_brute_force():
    """On small seeded pairs, ef and pebble at tiers 1-3 and k = 1-3: a won
    game carries a morphism exactly when brute force finds a homomorphism
    (tier 1) or an isomorphism (tiers 2-3); every certificate verifies; and
    verdicts are those without a certificate."""
    rng = random.Random(20240531)
    shapes: Counter = Counter()
    for i in range(80):
        A = _random_structure(rng, "x")
        B = (relabelled(rng, A), _doubled(rng, A), _moved(rng, A),
             _random_structure(rng, rng.choice("xy")))[i % 4]
        hom, iso = brute_homomorphism_exists(A, B), brute_isomorphism_exists(A, B)
        for solve in (ef_game, pebble_game):
            for tier in (1, 2, 3):
                k = rng.randint(1, 3)
                won, cert = solve(A, B, k, tier)
                assert won == solve(A, B, k, tier, build_certificate=False)[0]
                found = hom if tier == 1 else iso
                assert won or not found, (A, B, k, tier)
                if not won:
                    continue
                shapes[min(tier, 2), cert["shape"]] += 1
                assert (cert["shape"] != "positions") == found, (A, B, k, tier)
                assert verify_certificate(cert, A, B) == (True, None), (A, B, k, tier)
    assert shapes.keys() == {(1, "homomorphism"), (1, "positions"), (2, "isomorphism"),
                             (2, "positions")} and shapes[2, "positions"] > 10, shapes


def test_an_exhausted_search_falls_back_to_the_positions_walk(monkeypatch):
    """clique(10) has no homomorphism into clique(9), but ef tier 1 at k=3
    is won: the search stops after `strategy.BUDGET` values tried, and the
    forward certificate is the positions walk, which verifies."""
    A, B = zoo.clique(10), zoo.clique(9)
    tried, extend = [], Extender.extend

    def counted(self, *args):
        tried.append(args)
        return extend(self, *args)
    search = strategy.find_homomorphism

    def budgeted(*args, **kwargs):
        del tried[:]
        monkeypatch.setattr(Extender, "extend", counted)
        try:
            return search(*args, **kwargs)
        finally:
            monkeypatch.setattr(Extender, "extend", extend)
            searches.append(len(tried))
    searches = []
    monkeypatch.setattr(strategy, "find_homomorphism", budgeted)
    verdict = decide("ef", 1, A, B, 3)
    cert = verdict["certificate"]
    assert verdict["equiv"] and cert["forward"]["shape"] == "positions"
    assert cert["backward"]["shape"] == "homomorphism"
    assert searches[0] == strategy.BUDGET and searches[1] < len(A.universe)
    assert verify_certificate(cert["forward"], A, B) == (True, None)
    assert verify_certificate(cert["backward"], B, A) == (True, None)
