import random

import pytest
from hypothesis import given, settings

from oracles import (all_digraphs, bisim_approx, brute_bijection_game, brute_bijection_round,
                     build_theta, lin_closed_form, lin_game_textbook, theta_fixpoint_oracle,
                     wl_distinguishes)
from strategies import pointed_kripke_pairs, structure_pairs

from gamecomonads import zoo
from gamecomonads.ef import ef_game
from gamecomonads.equiv import decide, verify_certificate
from gamecomonads.modal import modal_game
from gamecomonads.pebble import pebble_game
from gamecomonads.structures import BoundExceeded, validate_structure


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


def test_mutual_existential_certificates_round_trip():
    A, B = zoo.edge2(), zoo.path(3)
    for tag in ("ef", "pebble"):
        v = decide(tag, 1, A, B, 2)
        verdict, cert = v["equiv"], v["certificate"]
        assert verdict and cert["forward"] and cert["backward"]


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


def test_back_and_forth_certificate_rejects_tampering():
    A = zoo.lin(2)
    verdict, cert = ef_game(A, A, 2, 2)
    root = _entry(cert, pairs=[])
    assert root["forth"][0] == ["e0", "e0"]
    root["forth"][0] = ["e0", "e1"]
    ok, msg = verify_certificate(cert, A, A)
    assert not ok


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


def test_verifier_rejects_missing_left_answer():
    A = zoo.lin(2)
    cert = ef_game(A, A, 2, 2)[1]
    bad = _tampered(cert, {"pairs": []}, "forth", lambda ans: [a for a in ans if a[0] != "e0"])
    ok, msg = verify_certificate(bad, A, A)
    assert not ok and msg.startswith("no forth answer to 'e0'"), msg


def test_verifier_rejects_missing_right_answer_at_tier_2():
    A = zoo.lin(2)
    cert = ef_game(A, A, 2, 2)[1]
    bad = _tampered(cert, {"pairs": []}, "back", lambda ans: ans[:1])
    ok, msg = verify_certificate(bad, A, A)
    assert not ok and msg.startswith("no back answer to 'e1'"), msg


def test_verifier_rejects_losing_response():
    A = zoo.lin(2)
    cert = ef_game(A, A, 2, 2)[1]
    assert _entry(cert, pairs=[["e0", "e0"]])["forth"] == [["e0", "e0"], ["e1", "e1"]]
    bad = _tampered(cert, {"pairs": [["e0", "e0"]]}, "forth",
                    lambda ans: [["e0", "e0"], ["e1", "e0"]])
    ok, msg = verify_certificate(bad, A, A)
    assert not ok and "('e1', 'e0')" in msg and "loses" in msg, msg
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
def test_verifier_rejects_losing_ef_answer_two_pairs_deep(tier, name, edit, pair):
    A = zoo.lin(5)
    cert = decide("ef", tier, A, A, 3)["certificate"]
    assert _entry(cert, pairs=DEEP)[name][4] == ["e4", "e4"]
    bad = _tampered(cert, {"pairs": DEEP}, name, edit)
    ok, msg = verify_certificate(bad, A, A)
    assert not ok and pair in msg and "loses" in msg, msg
    assert '"pairs": [["e1", "e1"], ["e3", "e3"]]' in msg, msg
    assert "is not a partial isomorphism" in msg, msg


def test_verifier_rejects_losing_ef_tier1_answer_two_pairs_deep():
    # the line e1 -> e1, e3 -> e3, then e4 -> e2 breaks the order
    A = zoo.lin(5)
    cert = decide("ef", 1, A, A, 3)["certificate"]["forward"]
    assert _entry(cert, pairs=[])["forth"][1] == ["e1", "e1"]
    assert _entry(cert, pairs=[["e1", "e1"]], rounds_left=2)["forth"][3] == ["e3", "e3"]
    assert _entry(cert, pairs=DEEP)["forth"][4] == ["e4", "e4"]
    bad = _tampered(cert, {"pairs": DEEP}, "forth", _e4_to_e2)
    ok, msg = verify_certificate(bad, A, A)
    assert not ok and "('e4', 'e2')" in msg and "loses" in msg, msg
    assert '"pairs": [["e1", "e1"], ["e3", "e3"]]' in msg, msg
    assert "is not a partial homomorphism" in msg, msg


@pytest.mark.parametrize("tier, name, edit, pair, kind", [
    (1, "forth", _e4_to_e2, "('e4', 'e2')", "homomorphism"),
    (3, "bijection", _swap_e0_e2, "('e0', 'e2')", "isomorphism"),
])
def test_verifier_rejects_losing_pebble_answer_two_pairs_deep(tier, name, edit, pair, kind):
    A = zoo.lin(5)
    cert = decide("pebble", tier, A, A, 3)["certificate"]
    cert = cert["forward"] if tier == 1 else cert
    assert _entry(cert, base=DEEP)[name][4] == ["e4", "e4"]
    bad = _tampered(cert, {"base": DEEP}, name, edit)
    ok, msg = verify_certificate(bad, A, A)
    assert not ok and pair in msg and "loses" in msg, msg
    assert '{"base": [["e1", "e1"], ["e3", "e3"]]}' in msg, msg
    assert f"is not a partial {kind}" in msg, msg


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
