import json

import pytest
from hypothesis import given, settings

from strategies import structure_pairs, structures

from gamecomonads import strategy, zoo
from gamecomonads.comonad import play_id, play_structure
from gamecomonads.ef import (EF, EfCoKleisli, EfRules, coextend_play, ef_coextension,
                             ef_counit, ef_game_exists, ef_plays,
                             i_morphism_normalize, is_i_morphism)
from gamecomonads.strategy import verify
from gamecomonads.structures import (CapExceeded, find_homomorphism,
                                     is_homomorphism)


def verify_ef(f: EfCoKleisli):
    return verify(EfRules(f.source, f.target, f.k, 1), 1, f.certificate)


def ids(plays):
    return {play_id(s) for s in plays}


def materialize(A, k):
    """The ef play structure of rank k."""
    return play_structure(EF, A, ef_plays(A, k))


def test_materialize_loop_k2():
    M = materialize(zoo.loop(), 2)
    assert set(M.universe) == ids([("a",), ("a", "a")])
    one, two = play_id(("a",)), play_id(("a", "a"))
    assert M.relations["R"] == frozenset({(one, one), (one, two), (two, one), (two, two)})


def test_materialize_edge_k1():
    # distinct length-1 plays are prefix-incomparable, so no tuple relates them
    M = materialize(zoo.edge(), 1)
    assert set(M.universe) == ids([("a",), ("b",)])
    assert M.relations["R"] == frozenset()


@given(structures(max_size=3))
def test_materialize_k1_keeps_exactly_diagonal_tuples(A):
    M = materialize(A, 1)
    assert len(M.universe) == len(A.universe)
    for name, tups in A.relations.items():
        expected = {tuple(play_id((t[0],)) for _ in t)
                    for t in tups if len(set(t)) == 1}
        assert M.relations[name] == frozenset(expected)


@given(structures(max_size=3))
def test_materialize_k1_counit_is_homomorphism(A):
    M = materialize(A, 1)
    rename = {play_id((a,)): a for a in A.universe}
    assert is_homomorphism(rename, M, A)


def test_materialize_cap():
    with pytest.raises(CapExceeded) as exc:
        ef_plays(zoo.lin(4), 3, cap=10)
    assert exc.value.required == 4 + 16 + 64


def test_counit():
    assert ef_counit(("a",)) == "a"
    assert ef_counit(("a", "b")) == "b"
    assert ef_counit(("a", "b", "a")) == "a"


def test_coextension_constant():
    assert coextend_play(lambda s: "c", ("a", "b")) == ("c", "c")


def test_coextension_of_counit_is_identity():
    for s in ef_plays(zoo.lin(3), 2):
        assert coextend_play(ef_counit, s) == s


def test_coextension_through_homomorphism():
    h = {"a": "a", "b": "a"}  # edge -> loop
    assert coextend_play(lambda s: h[ef_counit(s)], ("a", "b")) == ("a", "a")


def test_coextension_table_lengths():
    A = zoo.lin(2)
    f = EfCoKleisli(A, A, 2, {s: ef_counit(s) for s in ef_plays(A, 2)})
    for s, t in ef_coextension(f).items():
        assert len(s) == len(t)


def test_coextension_preserves_covering():
    A, B = zoo.lin(3), zoo.lin(3)
    table = {s: B.universe[len(s) % 3] for s in ef_plays(A, 3)}
    for s in ef_plays(A, 3):
        if len(s) < 3:
            for a in A.universe:
                longer = coextend_play(table.__getitem__, s + (a,))
                assert longer[:-1] == coextend_play(table.__getitem__, s)


@pytest.mark.usefixtures("no_morphism")
def test_game_identity():
    A = zoo.lin(3)
    verdict, cert = ef_game_exists(A, A, 2)
    assert verdict
    ok, msg = verify_ef(cert)
    assert ok, msg
    assert cert.certificate["shape"] == "positions"
    assert cert.certificate["game"] == "existential"


@pytest.mark.usefixtures("no_morphism")
def test_rounds_left_capped_at_the_unpebbled_elements():
    # two elements leave at most two rounds that can add a pair; the play
    # table still answers every play up to rank 5, from that one certificate
    A = zoo.lin(2)
    verdict, cert = ef_game_exists(A, A, 5)
    assert verdict and verify_ef(cert) == (True, None)
    assert max(e["rounds_left"] for e in cert.certificate["positions"]) == 2
    assert len(cert.table) == sum(2 ** i for i in range(1, 6))
    assert all(cert(s) == s[-1] for s in ef_plays(A, 5))


def test_game_lin3_to_lin2():
    # one round embeds any single element; two rounds let Spoiler isolate the
    # middle element of the larger order
    assert ef_game_exists(zoo.lin(3), zoo.lin(2), 1, build_strategy=False)[0]
    assert not ef_game_exists(zoo.lin(3), zoo.lin(2), 2, build_strategy=False)[0]
    assert not ef_game_exists(zoo.lin(3), zoo.lin(2), 3, build_strategy=False)[0]


def test_game_lin4_to_lin3():
    assert ef_game_exists(zoo.lin(4), zoo.lin(3), 2, build_strategy=False)[0]
    assert not ef_game_exists(zoo.lin(4), zoo.lin(3), 3, build_strategy=False)[0]


def test_game_triangle_to_k2():
    # two rounds cannot exhibit the triangle; three can
    assert ef_game_exists(zoo.clique(3), zoo.edge2(), 2, build_strategy=False)[0]
    assert not ef_game_exists(zoo.clique(3), zoo.edge2(), 3, build_strategy=False)[0]


def test_game_matches_materialized_hom_on_triangle():
    for k in (1, 2, 3):
        game = ef_game_exists(zoo.clique(3), zoo.edge2(), k, build_strategy=False)[0]
        hom = find_homomorphism(materialize(zoo.clique(3), k), zoo.edge2())
        assert game == (hom is not None)


@settings(max_examples=25)
@given(structure_pairs(max_size=3))
def test_game_matches_materialized_hom(pair):
    A, B = pair
    for k in (1, 2):
        game = ef_game_exists(A, B, k, build_strategy=False)[0]
        hom = find_homomorphism(materialize(A, k), B)
        assert game == (hom is not None)


@settings(max_examples=25)
@given(structure_pairs(max_size=3))
def test_game_monotone_in_k(pair):
    A, B = pair
    if ef_game_exists(A, B, 3, build_strategy=False)[0]:
        assert ef_game_exists(A, B, 2, build_strategy=False)[0]
    if ef_game_exists(A, B, 2, build_strategy=False)[0]:
        assert ef_game_exists(A, B, 1, build_strategy=False)[0]


def test_strategy_table_is_cokleisli_hom(monkeypatch):
    """The play table read off either certificate shape: the homomorphism
    lin(2) -> lin(4), and the positions walk once the search is patched out."""
    A, B = zoo.lin(2), zoo.lin(4)
    for shape in ("homomorphism", "positions"):
        verdict, cert = ef_game_exists(A, B, 2)
        assert verdict and cert.certificate["shape"] == shape
        mapped = {play_id(s): cert.table[s] for s in ef_plays(A, 2)}
        assert is_homomorphism(mapped, materialize(A, 2), B)
        monkeypatch.setattr(strategy, "find_homomorphism", lambda *args, **kwargs: None)


@pytest.mark.usefixtures("no_morphism")
def test_strategy_verifier_rejects_tampering():
    # answering e1 with e0 after e0 -> e0 breaks the order upstream
    A = zoo.lin(2)
    verdict, cert = ef_game_exists(A, A, 2)
    at = next(e for e in cert.certificate["positions"] if e["pairs"] == [["e0", "e0"]])
    at["forth"] = [[a, "e0"] for a, _ in at["forth"]]
    ok, msg = verify_ef(cert)
    assert not ok and "partial homomorphism" in msg


@pytest.mark.usefixtures("no_morphism")
def test_strategy_verifier_rejects_a_dropped_position():
    A = zoo.lin(3)
    verdict, cert = ef_game_exists(A, A, 2)
    del cert.certificate["positions"][-1]
    ok, msg = verify_ef(cert)
    assert not ok and "no answers recorded" in msg


def test_strategy_json_round_trip():
    # the certificate is the strategy's JSON form: its play table survives
    A = zoo.lin(2)
    verdict, cert = ef_game_exists(A, A, 2)
    data = json.loads(json.dumps(cert.certificate))
    back = EfCoKleisli(A, A, 2, certificate=data)
    assert back.table == cert.table


def test_normalize_loop_example():
    A = zoo.loop()
    B = zoo.lin(2)
    table = {("a",): "e0", ("a", "a"): "e1"}
    f = EfCoKleisli(A, B, 2, table)
    g = i_morphism_normalize(f)
    assert g.table[("a", "a")] == "e0"
    assert g.table[("a",)] == "e0"


def test_normalize_fixpoint():
    A = zoo.lin(2)
    verdict, cert = ef_game_exists(A, A, 2)
    normalized = i_morphism_normalize(cert)
    assert is_i_morphism(normalized)
    assert i_morphism_normalize(normalized).table == normalized.table


def test_normalize_keeps_nonrepeating_plays():
    A = zoo.lin(2)
    table = {s: "e0" if len(s) == 1 else "e1" for s in ef_plays(A, 2)}
    f = EfCoKleisli(A, A, 2, table)
    g = i_morphism_normalize(f)
    for s in ef_plays(A, 2):
        if len(set(s)) == len(s):
            assert g.table[s] == f.table[s]


def test_normalized_strategy_still_homomorphism():
    A, B = zoo.lin(3), zoo.lin(3)
    verdict, cert = ef_game_exists(A, B, 2)
    g = i_morphism_normalize(cert)
    mapped = {play_id(s): g.table[s] for s in ef_plays(A, 2)}
    assert is_homomorphism(mapped, materialize(A, 2), B)


# Kleisli-form equations, checked pointwise on materialized instances

@given(structures(max_size=3))
def test_kleisli_law_counit_coextension_identity(A):
    for k in (1, 2):
        for s in ef_plays(A, k):
            assert coextend_play(ef_counit, s) == s


@settings(max_examples=20)
@given(structure_pairs(max_size=3))
def test_kleisli_law_counit_after_coextension(pair):
    A, B = pair
    k = 2
    table = {s: B.universe[sum(map(len, s)) % len(B.universe)]
             for s in ef_plays(A, k)}
    for s in ef_plays(A, k):
        assert ef_counit(coextend_play(table.__getitem__, s)) == table[s]


@settings(max_examples=20)
@given(structure_pairs(max_size=2))
def test_kleisli_law_composition(pair):
    A, B = pair
    k = 2
    f = {s: B.universe[len(s) % len(B.universe)] for s in ef_plays(A, k)}
    g = {t: A.universe[(len(t) + 1) % len(A.universe)] for t in ef_plays(B, k)}
    for s in ef_plays(A, k):
        lhs = coextend_play(lambda t: g[coextend_play(f.__getitem__, t)], s)
        rhs = coextend_play(g.__getitem__, coextend_play(f.__getitem__, s))
        assert lhs == rhs


def test_coequaliser_parallel_pair():
    # counit of the elementwise counit equals counit of the last component,
    # over all two-level plays of a small instance
    A = zoo.lin(2)
    plays = ef_plays(A, 2)
    from itertools import product
    for length in (1, 2):
        for S in product(plays, repeat=length):
            lifted = tuple(ef_counit(x) for x in S)
            assert ef_counit(lifted) == ef_counit(S[-1])


def test_play_id_round_trip():
    s = ("a", "b,c", 'd"e')
    assert EF.of_id(play_id(s)) == s


def test_lin_sweep_script_checks_the_closed_form(monkeypatch, capsys):
    import pathlib
    import runpy
    script = pathlib.Path(__file__).parent.parent / "scripts" / "lin_equivalence_sweep.py"
    sweep = runpy.run_path(str(script))
    monkeypatch.setattr("sys.argv", ["sweep", "--max-n", "7", "--max-k", "3"])
    assert sweep["main"]() == 0
    # a solver that calls every pair equivalent disagrees with the closed form
    sweep["main"].__globals__["ef_game"] = lambda *args, **kw: (True, None)
    assert sweep["main"]() == 1
    assert " !" in capsys.readouterr().out
