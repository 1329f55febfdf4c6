import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings

from oracles import all_forests, brute_coalgebra, brute_pebble_number, is_cover_of
from strategies import structures

from gamecomonads import zoo
from gamecomonads.coalgebra import (construct_coalgebra, ef_coalgebra_number,
                                    ef_coalgebra_to_forest_cover,
                                    ef_to_pebble_coalgebra, ef_to_pebble_play,
                                    forest_cover_to_ef_coalgebra, modal_coalgebra,
                                    modal_coalgebra_number, modal_depth,
                                    pebble_coalgebra_number, pebble_coalgebra_to_cover,
                                    pebbled_cover_to_coalgebra, verify_coalgebra)
from gamecomonads.comonad import play_id, play_structure
from gamecomonads.decomposition import (ForestCover, PebbledForestCover, tree_depth,
                                        tree_width)
from gamecomonads.lawcheck import GenConfig, random_structure
from gamecomonads.ef import EF, ef_plays
from gamecomonads.structures import gaifman_graph, is_homomorphism, validate_structure


def test_verify_ef_single_vertex():
    A = zoo.lin(1)
    ok, msg = verify_coalgebra("ef", A, 1, {"e0": ("e0",)})
    assert ok, msg


def test_verify_ef_edge_flat_cover_fails_hom_condition():
    A = zoo.edge()
    ok, msg = verify_coalgebra("ef", A, 1, {"a": ("a",), "b": ("b",)})
    assert not ok and "comparable" in msg


def test_verify_ef_edge_chain_ok():
    A = zoo.edge()
    ok, msg = verify_coalgebra("ef", A, 2, {"a": ("a",), "b": ("a", "b")})
    assert ok, msg


def test_verify_ef_counit_violation():
    A = zoo.lin(1)
    ok, msg = verify_coalgebra("ef", A, 2, {"e0": ("e0", "e0")})
    # play ends at e0 but the prefix law fails: alpha(e0) is not ("e0",)
    assert not ok


def test_verify_ef_agrees_with_materialized_hom():
    A = zoo.clique(3)
    depth, cover = tree_depth(A)
    alpha = forest_cover_to_ef_coalgebra(cover, depth)
    ok, msg = verify_coalgebra("ef", A, depth, alpha)
    assert ok, msg
    mapped = {a: play_id(s) for a, s in alpha.items()}
    assert is_homomorphism(mapped, A, play_structure(EF, A, ef_plays(A, depth)))


def test_forest_cover_to_coalgebra_examples():
    single = ForestCover({"a": None})
    assert forest_cover_to_ef_coalgebra(single, 1) == {"a": ("a",)}
    chain = ForestCover({"a": None, "b": "a"})
    assert forest_cover_to_ef_coalgebra(chain, 2)["b"] == ("a", "b")
    k3 = ForestCover({"a": None, "b": "a", "c": "b"})
    assert forest_cover_to_ef_coalgebra(k3, 3)["c"] == ("a", "b", "c")


def test_forest_cover_height_gate():
    chain = ForestCover({"a": None, "b": "a"})
    with pytest.raises(ValueError, match="height"):
        forest_cover_to_ef_coalgebra(chain, 1)


def test_cover_coalgebra_round_trip_on_solver_output():
    for A in (zoo.edge(), zoo.clique(3), zoo.cycle(4)):
        depth, cover = tree_depth(A)
        alpha = forest_cover_to_ef_coalgebra(cover, depth)
        back = ef_coalgebra_to_forest_cover(A, depth, alpha)
        assert back.parent == cover.parent


def test_cover_coalgebra_round_trip_exhaustive():
    # all forest covers of height <= 3 round-trip exactly, up to six elements
    for A in (zoo.path(3), zoo.cycle(3), zoo.edge(), zoo.path(6)):
        G = gaifman_graph(A)
        seen = 0
        for parent in all_forests(G.vertices):
            if not is_cover_of(parent, sorted(G.edges)):
                continue
            cover = ForestCover(dict(parent))
            if cover.height > 3:
                continue
            seen += 1
            alpha = forest_cover_to_ef_coalgebra(cover, 3)
            ok, msg = verify_coalgebra("ef", A, 3, alpha)
            assert ok, msg
            back = ef_coalgebra_to_forest_cover(A, 3, alpha)
            assert back.parent == cover.parent
        assert seen > 0


def test_ef_coalgebra_number_is_tree_depth():
    for A in (zoo.lin(1), zoo.edge(), zoo.clique(4), zoo.path(5)):
        k, alpha = ef_coalgebra_number(A)
        assert k == tree_depth(A)[0]
        ok, msg = verify_coalgebra("ef", A, k, alpha)
        assert ok, msg


def test_ef_minimality_no_cover_below_tree_depth():
    # exhaustive: no forest cover of smaller height exists
    for A in (zoo.clique(3), zoo.path(4)):
        depth = tree_depth(A)[0]
        G = gaifman_graph(A)
        for parent in all_forests(G.vertices):
            if is_cover_of(parent, sorted(G.edges)):
                assert ForestCover(parent).height >= depth


def test_verify_pebble_coalgebra_from_cover():
    A = zoo.clique(3)
    k, cover = pebble_coalgebra_number(A)
    assert k == 3
    alpha = pebbled_cover_to_coalgebra(cover)
    ok, msg = verify_coalgebra("pebble", A, k, alpha)
    assert ok, msg


def test_pebble_cover_coalgebra_round_trip():
    for A in (zoo.clique(3), zoo.path(4), zoo.cycle(5), zoo.lin(1)):
        k, cover = pebble_coalgebra_number(A)
        back = pebble_coalgebra_to_cover(A, k, pebbled_cover_to_coalgebra(cover))
        assert back.cover.parent == cover.cover.parent
        assert back.pebbles == cover.pebbles and back.k == k
    # one pebble cannot hold both ends of an edge
    with pytest.raises(ValueError, match="not a coalgebra"):
        pebble_coalgebra_to_cover(zoo.edge(), 1, {"a": ((1, "a"),), "b": ((1, "a"), (1, "b"))})


def test_pebble_coalgebra_number_fixtures():
    assert pebble_coalgebra_number(zoo.lin(1))[0] == 1
    assert pebble_coalgebra_number(zoo.clique(3))[0] == 3
    assert pebble_coalgebra_number(zoo.path(4))[0] == 2  # tree-shaped


def test_pebble_coalgebra_number_is_tree_width_plus_one():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 6)
        universe = [f"v{i}" for i in range(n)]
        tups = [[u, v] for u in universe for v in universe
                if u != v and rng.random() < 0.4]
        A = validate_structure({"R": 2}, universe, {"R": tups})
        assert pebble_coalgebra_number(A)[0] == tree_width(A)[0] + 1


def test_pebble_coalgebra_number_matches_bruteforce_minimum():
    for A in (zoo.clique(3), zoo.path(4), zoo.cycle(4), zoo.edge()):
        assert pebble_coalgebra_number(A)[0] == brute_pebble_number(A)


def test_modal_depth_fixtures():
    assert modal_depth(zoo.kripke_chain(2)) == 2
    assert modal_depth(zoo.kripke_loop()) is None
    single = zoo.kripke(["a"], "a", {"t": []})
    assert modal_depth(single) == 0
    assert modal_coalgebra_number(single) == 1


def test_modal_depth_rejects_multiple_paths():
    # diamond: two distinct paths to the same world
    P = zoo.kripke(["a", "b", "c", "d"], "a",
                   {"t": [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]})
    assert modal_depth(P) is None
    assert modal_coalgebra_number(P) is None


def test_modal_coalgebra_unique_paths():
    P = zoo.kripke_chain(2)
    alpha = modal_coalgebra(P, 2)
    assert alpha["w2"] == ("w0", "t", "w1", "t", "w2")
    ok, msg = verify_coalgebra("modal", P, 2, alpha)
    assert ok, msg
    assert modal_coalgebra(P, 1) is None


def test_modal_coalgebra_requires_reachability():
    P = zoo.kripke(["a", "b"], "a", {"t": []})
    assert modal_depth(P) == 0  # generated submodel is just the point
    assert modal_coalgebra(P, 1) is None
    assert modal_coalgebra_number(P) is None


def _tampered_modal(case):
    """A pointed structure and a map that breaks one modal coalgebra law."""
    if case == "wrong play at the point":
        # the point's play runs round the cycle and back; its counit holds
        P = zoo.kripke(["r", "a"], "r", {"t": [("r", "a"), ("a", "r")]})
        return P, {"r": ("r", "t", "a", "t", "r"), "a": ("r", "t", "a")}
    if case == "skipped step":
        # c's play takes the shortcut r -> c and skips a, its parent through a -> c
        P = zoo.kripke(["r", "a", "c"], "r", {"t": [("r", "a"), ("a", "c"), ("r", "c")]})
        return P, {"r": ("r",), "a": ("r", "t", "a"), "c": ("r", "t", "c")}
    if case == "missing transition":
        # r -u-> a is not a transition, though r -t-> a is
        P = zoo.kripke(["r", "a", "c"], "r", {"t": [("r", "a"), ("a", "c")], "u": []})
        return P, {"r": ("r",), "a": ("r", "t", "a"), "c": ("r", "u", "a", "t", "c")}
    # prefix mismatch: c's play reaches a through b, a's own play does not
    P = zoo.kripke(["r", "a", "b", "c"], "r",
                   {"t": [("r", "a"), ("r", "b"), ("b", "a"), ("a", "c")]})
    return P, {"r": ("r",), "a": ("r", "t", "a"), "b": ("r", "t", "b"),
               "c": ("r", "t", "b", "t", "a", "t", "c")}


@pytest.mark.parametrize("case", ["wrong play at the point", "skipped step",
                                  "missing transition", "prefix mismatch"])
def test_verify_modal_rejects_tampered_coalgebra(case):
    P, alpha = _tampered_modal(case)
    ok, msg = verify_coalgebra("modal", P, 3, alpha)
    assert not ok
    expected = {"wrong play at the point": "comultiplication law fails",
                "skipped step": "homomorphism condition fails",
                "missing transition": "missing transition",
                "prefix mismatch": "comultiplication law fails"}[case]
    assert expected in msg


def test_ef_to_pebble_play():
    assert ef_to_pebble_play(("a",)) == ((1, "a"),)
    assert ef_to_pebble_play(("a", "b")) == ((1, "a"), (2, "b"))


def test_ef_to_pebble_coalgebra_composition_verifies():
    A = zoo.edge()
    depth, cover = tree_depth(A)
    alpha = forest_cover_to_ef_coalgebra(cover, depth)
    beta = ef_to_pebble_coalgebra(alpha)
    ok, msg = verify_coalgebra("pebble", A, depth, beta)
    assert ok, msg


@settings(max_examples=20)
@given(structures(max_size=5))
def test_width_bound_via_morphism_composition(A):
    depth, cover = tree_depth(A)
    alpha = forest_cover_to_ef_coalgebra(cover, depth)
    beta = ef_to_pebble_coalgebra(alpha)
    ok, msg = verify_coalgebra("pebble", A, depth, beta)
    assert ok, msg  # a depth-many-pebble coalgebra exists...
    assert tree_width(A)[0] + 1 <= depth  # ...so width + 1 is at most depth


def test_morphism_naturality_spot_check():
    # translating then mapping elementwise equals mapping then translating
    A, B = zoo.edge(), zoo.loop()
    h = {"a": "a", "b": "a"}
    from gamecomonads.ef import ef_plays
    for s in ef_plays(A, 2):
        mapped_then_translated = ef_to_pebble_play(tuple(h[x] for x in s))
        translated_then_mapped = tuple((p, h[x]) for p, x in ef_to_pebble_play(s))
        assert mapped_then_translated == translated_then_mapped


def test_construct_coalgebra_driver():
    A = zoo.edge()
    assert construct_coalgebra("ef", A, 1) is None  # tree-depth 2
    out = construct_coalgebra("ef", A, 2)
    assert out == {"a": ["a"], "b": ["a", "b"]}
    out = construct_coalgebra("pebble", A, 2)
    assert out is not None
    assert construct_coalgebra("modal", zoo.kripke_loop(), 3) is None
    out = construct_coalgebra("modal", zoo.kripke_chain(1), 1)
    assert out == {"w0": ["w0"], "w1": ["w0", "t", "w1"]}


def _random_tree(rng: random.Random):
    """A pointed Kripke structure that is a tree from its point, sometimes with
    one more transition or an unreachable world, and each world's path from
    the point (the unreachable world's play is the world alone)."""
    worlds = [f"w{i}" for i in range(rng.randint(1, 5))]
    edges = {"s": [], "t": []}
    paths = {"w0": ("w0",)}
    for i, w in enumerate(worlds[1:], 1):
        u, label = rng.choice(worlds[:i]), rng.choice("st")
        edges[label].append((u, w))
        paths[w] = paths[u] + (label, w)
    if rng.random() < 0.3:
        edges[rng.choice("st")].append((rng.choice(worlds), rng.choice(worlds)))
    if rng.random() < 0.2:
        worlds.append("u")
        paths["u"] = ("u",)
    return zoo.kripke(worlds, "w0", edges, {"p": worlds[::2]}), paths


def _changed(tag: str, universe, k: int, alpha: dict, rng: random.Random) -> dict:
    """alpha with one entry changed: dropped, or its play replaced by another
    element's, emptied, cut by a move, or with its first move replaced, its
    last move replaced or a move added (on an element of the universe or
    not, with a pebble up to k + 1)."""
    def move():
        x = rng.choice([*universe, "z"])
        return {"ef": (x,), "pebble": ((rng.randint(1, k + 1), x),),
                "modal": (rng.choice("st"), x)}[tag]
    unit = 2 if tag == "modal" else 1
    a = rng.choice(universe)
    s = alpha[a]
    out = dict(alpha)
    choice = rng.randrange(7)
    if choice == 0:
        del out[a]
    elif choice == 1:
        out[a] = alpha[rng.choice(universe)]
    elif choice == 2:
        out[a] = ()
    elif choice == 3:
        out[a] = s[:-unit]
    elif choice == 4:
        out[a] = move()[-1:] + s[1:]
    else:
        out[a] = s[:-unit if choice == 5 else len(s)] + move()
    return out


def test_verify_coalgebra_matches_the_definition():
    # covers and unfoldings give coalgebras at some indices, and one-entry
    # changes of them break the laws in every way the verifier checks
    rng = random.Random(14)
    cases = []
    for i in range(60):
        A = random_structure(GenConfig(max_universe_size=4, max_arity=2, density=0.4), rng)
        G = gaifman_graph(A)
        forests = all_forests(G.vertices)
        # covers at even i, forests that are not covers (if any) at odd i
        F = ForestCover(rng.choice(
            [p for p in forests if is_cover_of(p, G.edges) == (i % 2 == 0)] or forests))
        k = min(4, max(1, F.height + rng.randint(-1, 1)))
        cases.append(("ef", A, k, {v: tuple(F.chain(v)) for v in A.universe}))
        if len(A.universe) <= 3:
            pebbles = {v: rng.randint(1, 2) for v in A.universe}
            k = rng.randint(1, 2)
            cases.append(("pebble", A, k, pebbled_cover_to_coalgebra(
                PebbledForestCover(F, pebbles, k))))
        P, paths = _random_tree(rng)
        cases.append(("modal", P, rng.randint(1, 3), paths))
    verdicts = {True: 0, False: 0}
    for tag, A, k, alpha in cases:
        universe = (A.base if tag == "modal" else A).universe
        for beta in [alpha] + [_changed(tag, universe, k, alpha, rng) for _ in range(4)]:
            ok, msg = verify_coalgebra(tag, A, k, beta)
            assert ok == brute_coalgebra(tag, A, k, beta), (tag, k, beta, msg)
            verdicts[ok] += 1
    assert min(verdicts.values()) > 50, verdicts


def test_parameter_survey_script_runs():
    root = pathlib.Path(__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "parameter_survey.py"), "--samples", "5"],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
