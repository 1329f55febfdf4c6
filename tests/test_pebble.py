import pytest
from hypothesis import given, settings

from strategies import structure_pairs

from gamecomonads import zoo
from gamecomonads.comonad import play_id, play_structure
from gamecomonads.ef import ef_game_exists
from gamecomonads.equiv import decide, verify_certificate
from gamecomonads.pebble import (PEBBLE, pebble_coextension_on_play, pebble_game,
                                 pebble_plays)
from gamecomonads.structures import CapExceeded, find_homomorphism


def related(name, plays, A):
    return PEBBLE.lifted(name, plays, A) is None


def truncate(A, k, n):
    """The pebble play structure on plays of length at most n."""
    return play_structure(PEBBLE, A, pebble_plays(A, k, n))


def test_relation_conditions_loop():
    A = zoo.loop()
    assert related("R", [((1, "a"),), ((1, "a"),)], A)


def test_relation_condition_pebble_reuse_fails():
    A = zoo.edge()
    s = ((1, "a"),)
    t = ((1, "a"), (1, "b"))
    assert not related("R", [s, t], A)


def test_relation_condition_fresh_pebble_ok():
    A = zoo.edge()
    s = ((1, "a"),)
    t = ((1, "a"), (2, "b"))
    assert related("R", [s, t], A)


def test_relation_incomparable_fails():
    A = zoo.edge2()
    assert not related("R", [((1, "a"),), ((2, "b"),)], A)


def test_truncate_loop_k1_n1():
    T = truncate(zoo.loop(), 1, 1)
    pid = play_id(((1, "a"),))
    assert set(T.universe) == {pid}
    assert T.relations["R"] == frozenset({(pid, pid)})


def test_truncate_length_one_keeps_diagonal_only():
    T = truncate(zoo.edge2(), 2, 1)
    assert len(T.universe) == 4
    assert T.relations["R"] == frozenset()  # edge2 has no loops


def test_truncate_counts_edge_k2_n2():
    T = truncate(zoo.edge(), 2, 2)
    assert len(T.universe) == 4 + 16


def test_truncate_cap():
    with pytest.raises(CapExceeded):
        pebble_plays(zoo.lin(4), 3, 3, cap=100)


def test_coextension_constant():
    s = ((1, "a"), (2, "b"))
    assert pebble_coextension_on_play(lambda t: "c", s) == ((1, "c"), (2, "c"))


def test_coextension_counit_identity():
    for s in pebble_plays(zoo.edge(), 2, 2):
        assert pebble_coextension_on_play(lambda t: t[-1][1], s) == s


def test_coextension_through_homomorphism():
    h = {"a": "a", "b": "a"}
    s = ((2, "a"), (1, "b"))
    out = pebble_coextension_on_play(lambda t: h[t[-1][1]], s)
    assert out == ((2, "a"), (1, "a"))


def test_coextension_undefined_prefix():
    table = {((1, "a"),): "x"}
    with pytest.raises(ValueError, match="undefined"):
        pebble_coextension_on_play(table.__getitem__, ((1, "a"), (2, "b")))


def test_game_identity():
    A = zoo.lin(3)
    verdict, cert = pebble_game(A, A, 2, 1)
    assert verdict
    ok, msg = verify_certificate(cert, A, A)
    assert ok, msg


def test_game_triangle_two_pebbles_survive():
    # two pebbles cannot expose the triangle; three can
    assert pebble_game(zoo.clique(3), zoo.edge2(), 2, 1, build_certificate=False)[0]
    assert not pebble_game(zoo.clique(3), zoo.edge2(), 3, 1, build_certificate=False)[0]


def test_game_lin_walks_beat_short_orders():
    # with 2 pebbles Spoiler walks up the longer order and runs Duplicator out
    assert not pebble_game(zoo.lin(3), zoo.lin(2), 2, 1, build_certificate=False)[0]
    assert pebble_game(zoo.lin(2), zoo.lin(4), 2, 1, build_certificate=False)[0]


@settings(max_examples=20)
@given(structure_pairs(max_size=3))
def test_game_yes_whenever_hom_exists(pair):
    A, B = pair
    if find_homomorphism(A, B) is not None:
        for k in (1, 2):
            assert pebble_game(A, B, k, 1, build_certificate=False)[0]


@settings(max_examples=20)
@given(structure_pairs(max_size=3))
def test_game_monotone_in_k(pair):
    A, B = pair
    if pebble_game(A, B, 2, 1, build_certificate=False)[0]:
        assert pebble_game(A, B, 1, 1, build_certificate=False)[0]
    if pebble_game(A, B, 3, 1, build_certificate=False)[0]:
        assert pebble_game(A, B, 2, 1, build_certificate=False)[0]


@settings(max_examples=15)
@given(structure_pairs(max_size=3))
def test_game_with_enough_pebbles_is_hom_existence(pair):
    A, B = pair
    k = len(A.universe)
    assert pebble_game(A, B, k, 1, build_certificate=False)[0] == \
        (find_homomorphism(A, B) is not None)


@settings(max_examples=15)
@given(structure_pairs(max_size=3))
def test_pebble_win_implies_rank_win(pair):
    # precomposition with the position-indexing translation turns pebble
    # strategies into rank strategies, never the other way around
    A, B = pair
    for k in (1, 2):
        if pebble_game(A, B, k, 1, build_certificate=False)[0]:
            assert ef_game_exists(A, B, k, build_strategy=False)[0]


@pytest.mark.usefixtures("no_morphism")
@settings(max_examples=25)
@given(structure_pairs(max_size=3))
def test_certificate_bases_repeat_no_pair(pair):
    # a position is the set of pebbled pairs: a move onto a pebbled element
    # is answered by its partner and leaves the base as it was
    A, B = pair
    for k in (1, 2, 3, 4):
        for tier in (1, 2, 3):
            verdict = decide("pebble", tier, A, B, k)
            cert = verdict["certificate"]
            if cert is None:
                continue
            for side in ([cert["forward"], cert["backward"]] if tier == 1 else [cert]):
                for entry in side["positions"]:
                    base = [tuple(p) for p in entry["base"]]
                    assert len(set(base)) == len(base) < k and base == sorted(base)


def test_rank_win_does_not_imply_pebble_win():
    assert ef_game_exists(zoo.lin(3), zoo.lin(2), 1, build_strategy=False)[0]
    assert ef_game_exists(zoo.lin(4), zoo.lin(3), 2, build_strategy=False)[0]
    assert not pebble_game(zoo.lin(4), zoo.lin(3), 2, 1, build_certificate=False)[0]


@pytest.mark.usefixtures("no_morphism")
def test_strategy_verifier_rejects_tampering():
    A = zoo.lin(2)
    verdict, cert = pebble_game(A, A, 2, 1)
    assert verdict
    entry = next(e for e in cert["positions"] if e["base"] == [])
    assert entry["forth"][0] == ["e0", "e0"]
    entry["forth"][0] = ["e0", "e1"]  # base [(e0, e1)] is never answered: closure breaks
    ok, msg = verify_certificate(cert, A, A)
    assert not ok
    assert "not closed" in msg or "winning condition" in msg


@pytest.mark.usefixtures("no_morphism")
def test_strategy_verifier_detects_missing_entry():
    A = zoo.lin(2)
    verdict, cert = pebble_game(A, A, 1, 1)
    cert["positions"][0]["forth"] = cert["positions"][0]["forth"][:1]
    ok, msg = verify_certificate(cert, A, A)
    assert not ok


def test_play_id_round_trip():
    s = ((1, "a"), (3, "b,c"))
    assert PEBBLE.of_id(play_id(s)) == s


def test_coextension_of_lifted_hom_is_homomorphism_between_truncations():
    from gamecomonads.structures import is_homomorphism
    A, B = zoo.edge(), zoo.loop()
    h = {"a": "a", "b": "a"}
    k, n = 2, 2
    mapped = {play_id(s):
              play_id(pebble_coextension_on_play(lambda t: h[t[-1][1]], s))
              for s in pebble_plays(A, k, n)}
    assert is_homomorphism(mapped, truncate(A, k, n), truncate(B, k, n))
