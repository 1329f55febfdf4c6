import pytest
from hypothesis import given, settings

from oracles import (_bisimulation_levels, _simulation_levels, bisim_approx,
                     brute_graded_bisim, graded_bisim_approx, graded_classes, graded_levels,
                     simulation_approx, simulation_strategy)
from strategies import pointed_kripke_pairs, pointed_kripkes

from gamecomonads import zoo
from gamecomonads.equiv import verify_certificate
from gamecomonads.comonad import play_id, play_structure
from gamecomonads.modal import (MODAL, ArityError, ModalRules, kripke_view, modal_coextend,
                                modal_counit, modal_game, modal_plays)
from gamecomonads.strategy import certificate
from gamecomonads.structures import (CapExceeded, find_homomorphism,
                                     is_homomorphism, validate_structure)


def unfold(P, k):
    """The modal play structure of depth k, pointed at the point's play."""
    return play_structure(MODAL, P, modal_plays(P, k))


def test_kripke_view_rejects_high_arity():
    A = validate_structure({"T": 3}, ["a"], {"T": [["a", "a", "a"]]})
    with pytest.raises(ArityError, match="arity violation"):
        kripke_view(A)


def test_unfold_loop_depth2_is_chain():
    P = zoo.kripke_loop()
    U = unfold(P, 2)
    assert len(U.base.universe) == 3
    t = U.base.relations["t"]
    assert len(t) == 2  # chain of three worlds, two steps
    assert U.point == play_id(("a",))


def test_unfold_no_transitions_single_world():
    P = zoo.kripke(["a"], "a", {"t": []})
    for k in (1, 3):
        U = unfold(P, k)
        assert len(U.base.universe) == 1


def test_unfold_two_cycle_depth1():
    P = zoo.kripke_two_cycle()
    U = unfold(P, 1)
    assert len(U.base.universe) == 2
    assert len(U.base.relations["t"]) == 1


def test_unfold_keeps_props_of_last_element():
    P = zoo.kripke(["a", "b"], "a", {"t": [("a", "b")]}, {"p": ["b"]})
    U = unfold(P, 1)
    marked = {t[0] for t in U.base.relations["p"]}
    assert marked == {play_id(("a", "t", "b"))}


def test_unfold_cap():
    P = zoo.kripke(["a"], "a", {"s": [("a", "a")], "t": [("a", "a")]})
    with pytest.raises(CapExceeded, match="plays, cap is 50"):
        modal_plays(P, 10, cap=50)


def test_unfold_rejects_k0():
    with pytest.raises(ValueError):
        unfold(zoo.kripke_loop(), 0)


def test_counit_and_coextension_recursion():
    assert modal_counit(("a", "t", "b")) == "b"
    f = {("a",): "x", ("a", "t", "b"): "y"}
    assert modal_coextend(f.__getitem__, ("a", "t", "b")) == ("x", "t", "y")


def test_coextension_counit_is_identity():
    P = zoo.kripke_two_cycle()
    for s in modal_plays(P, 3):
        assert modal_coextend(modal_counit, s) == s


def test_simulation_reflexive():
    P = zoo.kripke_two_cycle()
    for k in (1, 2, 3):
        assert simulation_approx(P, P, k)


def test_simulation_sink_below_anything_with_props():
    sink = zoo.kripke(["a"], "a", {"t": []}, {"p": ["a"]})
    big = zoo.kripke(["a", "b"], "a", {"t": [("a", "b")]}, {"p": ["a", "b"]})
    for k in (1, 2, 3):
        assert simulation_approx(sink, big, k)


def test_simulation_chain_vs_loop():
    chain = zoo.kripke_chain(1)
    loop = zoo.kripke_loop()
    for k in (1, 2, 3):
        assert simulation_approx(chain, loop, k)
    assert simulation_approx(loop, chain, 1)
    assert not simulation_approx(loop, chain, 2)


def test_simulation_rejects_k0():
    P = zoo.kripke_loop()
    with pytest.raises(ValueError):
        simulation_approx(P, P, 0)


def pointed_hom_exists(P, Q, k):
    U = unfold(P, k)
    pre = {U.point: Q.point}
    return find_homomorphism(U.base, Q.base, pre=pre) is not None


@settings(max_examples=30)
@given(pointed_kripke_pairs())
def test_simulation_iff_hom_into_unfolding(pair):
    P, Q = pair
    for k in (1, 2):
        assert simulation_approx(P, Q, k) == pointed_hom_exists(P, Q, k)


def test_simulation_strategy_is_pointed_hom():
    P, Q = zoo.kripke_two_cycle(), zoo.kripke_loop()
    k = 3
    assert simulation_approx(P, Q, k)
    table = simulation_strategy(P, Q, k)
    U = unfold(P, k)
    mapped = {play_id(s): b for s, b in table.items()}
    assert is_homomorphism(mapped, U.base, Q.base)
    assert mapped[U.point] == Q.point


def test_bisim_loop_vs_two_cycle():
    P, Q = zoo.kripke_loop(), zoo.kripke_two_cycle()
    for k in (1, 2, 3, 4):
        assert bisim_approx(P, Q, k)


def test_bisim_fork_vs_chain():
    # fork: a->b, a->c with p only at b; chain: a->b with p at b.
    # the fork's unmarked branch has no equally-labelled partner
    fork = zoo.kripke(["a", "b", "c"], "a", {"t": [("a", "b"), ("a", "c")]}, {"p": ["b"]})
    chain = zoo.kripke(["a", "b"], "a", {"t": [("a", "b")]}, {"p": ["b"]})
    assert not bisim_approx(fork, chain, 1)


def test_bisim_symmetric_and_reflexive():
    P, Q = zoo.kripke_chain(2), zoo.kripke_chain(2)
    assert bisim_approx(P, Q, 3)
    assert bisim_approx(Q, P, 3)


def test_graded_successor_count_mismatch():
    one = zoo.kripke(["r", "x"], "r", {"t": [("r", "x")]})
    two = zoo.kripke(["r", "x", "y"], "r", {"t": [("r", "x"), ("r", "y")]})
    assert not graded_bisim_approx(one, two, 1)
    assert bisim_approx(one, two, 1)


def test_graded_loop_vs_two_cycle():
    P, Q = zoo.kripke_loop(), zoo.kripke_two_cycle()
    for k in (1, 2, 3, 4):
        assert graded_bisim_approx(P, Q, k)


def test_graded_game_matches_approx_on_fixtures():
    one = zoo.kripke(["r", "x"], "r", {"t": [("r", "x")]})
    two = zoo.kripke(["r", "x", "y"], "r", {"t": [("r", "x"), ("r", "y")]})
    assert modal_game(one, two, 1, 3, build_certificate=False)[0] is False
    P, Q = zoo.kripke_loop(), zoo.kripke_two_cycle()
    verdict, cert = modal_game(P, Q, 3, 3)
    assert verdict
    ok, msg = verify_certificate(cert, P, Q)
    assert ok, msg


@settings(max_examples=30)
@given(pointed_kripke_pairs())
def test_graded_game_iff_approx_iff_bruteforce(pair):
    P, Q = pair
    for k in (1, 2, 3):
        game = modal_game(P, Q, k, 3, build_certificate=False)[0]
        approx = graded_bisim_approx(P, Q, k)
        brute = brute_graded_bisim(P, Q, k)
        assert game == approx == brute


def _past_both_caps(P, Q) -> int:
    """A depth past |A| + |B| (tiers 2 and 3) and |A| * |B| (tier 1), from
    which more rounds change no pair's value."""
    m, n = len(P.base.universe), len(Q.base.universe)
    return max(m * n, m + n) + 1


@settings(max_examples=30)
@given(pointed_kripke_pairs())
def test_games_past_the_refinement_cap_match_approximants(pair):
    # the sweep stops once a round drops no pair, at the latest after
    # |A| + |B| rounds at tiers 2 and 3 and |A| * |B| at tier 1
    P, Q = pair
    for k in (7, 9):
        assert modal_game(P, Q, k, 2, build_certificate=False)[0] == \
            bisim_approx(P, Q, k)
        assert modal_game(P, Q, k, 3, build_certificate=False)[0] == \
            graded_bisim_approx(P, Q, k)
    k = len(P.base.universe) * len(Q.base.universe) + 1
    assert modal_game(P, Q, k, 1, build_certificate=False)[0] == simulation_approx(P, Q, k)


def _oracle_levels(P, Q, k: int, tier: int) -> list[set]:
    """Entry j: the world pairs from which Duplicator survives j more rounds
    of the tier's game, by the oracles' level iteration."""
    if tier == 1:
        return _simulation_levels(P, Q, k)
    if tier == 2:
        return _bisimulation_levels(P, Q, k)
    return [{(a, b) for a in P.base.universe for b in Q.base.universe
             if cls[(0, a)] == cls[(1, b)]} for cls in graded_levels(P, Q, k)]


@settings(max_examples=30)
@given(pointed_kripke_pairs())
def test_certificates_match_oracle_levels(pair):
    """Verdict and certificate, at every tier and at depths up to past both
    caps, are those read off the oracles' levels: the answers go to the
    first successor that survives the rounds left."""
    P, Q = pair
    for k in (1, 2, 3, 5, 9, _past_both_caps(P, Q)):
        for tier in (1, 2, 3):
            levels = _oracle_levels(P, Q, k, tier)
            if (P.point, Q.point) not in levels[k]:
                assert modal_game(P, Q, k, tier) == (False, None), (k, tier)
                continue
            expected = certificate(ModalRules(P, Q, k, tier), tier, lambda pos, _: (
                lambda x, y: (x, y) in levels[pos[2] - 1]))
            assert modal_game(P, Q, k, tier) == (True, expected), (k, tier)


@settings(max_examples=30)
@given(pointed_kripke_pairs())
def test_tier_implications_graded_bisim_sim(pair):
    P, Q = pair
    for k in (1, 2):
        if graded_bisim_approx(P, Q, k):
            assert bisim_approx(P, Q, k)
        if bisim_approx(P, Q, k):
            assert simulation_approx(P, Q, k)
            assert simulation_approx(Q, P, k)


@settings(max_examples=30)
@given(pointed_kripke_pairs())
def test_back_and_forth_is_bisimulation(pair):
    P, Q = pair
    for k in (1, 2, 3):
        assert modal_game(P, Q, k, 2, build_certificate=False)[0] == \
            bisim_approx(P, Q, k)


@settings(max_examples=20)
@given(pointed_kripkes())
def test_approximants_reflexive(P):
    for k in (1, 2):
        assert simulation_approx(P, P, k)
        assert bisim_approx(P, P, k)
        assert graded_bisim_approx(P, P, k)


@settings(max_examples=20)
@given(pointed_kripke_pairs())
def test_approximants_symmetric(pair):
    P, Q = pair
    for k in (1, 2):
        assert bisim_approx(P, Q, k) == bisim_approx(Q, P, k)
        assert graded_bisim_approx(P, Q, k) == graded_bisim_approx(Q, P, k)


@settings(max_examples=20)
@given(pointed_kripke_pairs())
def test_approximants_monotone_in_k(pair):
    P, Q = pair
    for k in (1, 2):
        if simulation_approx(P, Q, k + 1):
            assert simulation_approx(P, Q, k)
        if bisim_approx(P, Q, k + 1):
            assert bisim_approx(P, Q, k)
        if graded_bisim_approx(P, Q, k + 1):
            assert graded_bisim_approx(P, Q, k)


def test_graded_classes_split_on_props():
    P = zoo.kripke(["a"], "a", {"t": []}, {"p": ["a"]})
    Q = zoo.kripke(["b"], "b", {"t": []}, {"p": []})
    cls = graded_classes(P, Q, 1)
    assert cls[(0, "a")] != cls[(1, "b")]


def test_graded_certificate_verifier_rejects_tampering():
    P, Q = zoo.kripke_loop(), zoo.kripke_two_cycle()
    verdict, cert = modal_game(P, Q, 2, 3)
    cert["positions"][0]["bijection"] = []
    ok, msg = verify_certificate(cert, P, Q)
    assert not ok


@settings(max_examples=15)
@given(pointed_kripkes(max_worlds=3), pointed_kripkes(max_worlds=3),
       pointed_kripkes(max_worlds=3))
def test_simulation_transitive(P, Q, R):
    for k in (1, 2):
        if simulation_approx(P, Q, k) and simulation_approx(Q, R, k):
            assert simulation_approx(P, R, k)


@settings(max_examples=15)
@given(pointed_kripkes(max_worlds=3))
def test_unfolding_is_synchronization_tree_of_bounded_height(P):
    from gamecomonads.coalgebra import modal_depth
    for k in (1, 2):
        U = unfold(P, k)
        height = modal_depth(U)
        assert height is not None and height <= k


def _random_kripke(n: int, seed: int):
    """n worlds, labels a and b with two successors each, propositions p and q."""
    import random
    rng = random.Random(seed)
    worlds = [f"w{i}" for i in range(n)]
    rels = {"a": [], "b": [], "p": [], "q": []}
    for x in worlds:
        for label in ("a", "b"):
            rels[label] += [[x, y] for y in rng.sample(worlds, 2)]
        for prop in ("p", "q"):
            if rng.random() < 0.5:
                rels[prop].append([x])
    return rels


def test_deep_k_on_eighty_worlds():
    """At k=1000: the values are fixed by round |A| + |B| = 160 at the latest
    (|A| * |B| at tier 1), and the sweep stops once a round drops no pair; a
    recursion once per round used to raise RecursionError here."""
    rels = _random_kripke(80, 3)
    names = {f"w{i}": f"v{(i * 37) % 80}" for i in range(80)}
    A = validate_structure({"a": 2, "b": 2, "p": 1, "q": 1}, list(names), rels)
    B = validate_structure({"a": 2, "b": 2, "p": 1, "q": 1}, sorted(names.values()),
                           {r: [[names[x] for x in t] for t in ts] for r, ts in rels.items()})
    P, Q = zoo.structure_point(A, "w0"), zoo.structure_point(B, names["w0"])
    assert modal_game(P, Q, 1000, 2, build_certificate=False) == (True, None)
    assert modal_game(P, Q, 1000, 3, build_certificate=False) == (True, None)
    assert modal_game(P, Q, 1000, 1, build_certificate=False) == (True, None)
