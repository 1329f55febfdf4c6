import random
import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings

from oracles import all_forests, brute_tree_depth, brute_tree_width, is_cover_of
from strategies import structures

from gamecomonads import zoo
from gamecomonads.decomposition import (ForestCover, PebbledForestCover,
                                        TreeDecomposition, decomposition_from_json,
                                        decomposition_to_json,
                                        decomposition_to_pebble_cover,
                                        forest_cover_from_json, forest_cover_to_json,
                                        pebble_cover_to_decomposition,
                                        pebbled_cover_from_json, pebbled_cover_to_json,
                                        tree_depth, tree_width,
                                        verify_forest_cover,
                                        verify_pebbled_forest_cover,
                                        verify_tree_decomposition)
from gamecomonads.structures import BoundExceeded, gaifman_graph, validate_structure


def test_tree_depth_fixtures():
    assert tree_depth(zoo.lin(1))[0] == 1
    assert tree_depth(zoo.edge())[0] == 2
    assert tree_depth(zoo.clique(4))[0] == 4
    assert tree_depth(zoo.path(4))[0] == 3


def test_tree_depth_witness_verifies():
    for A in (zoo.edge(), zoo.clique(3), zoo.cycle(4), zoo.path(5)):
        depth, cover = tree_depth(A)
        ok, msg = verify_forest_cover(cover, gaifman_graph(A))
        assert ok, msg
        assert cover.height == depth


def test_tree_depth_disconnected_is_max_of_components():
    A = validate_structure({"R": 2}, ["a", "b", "c", "d"],
                           {"R": [["a", "b"], ["b", "a"]]})
    depth, cover = tree_depth(A)
    assert depth == 2
    ok, _ = verify_forest_cover(cover, gaifman_graph(A))
    assert ok


@settings(max_examples=20)
@given(structures(max_size=4))
def test_tree_depth_matches_bruteforce(A):
    assert tree_depth(A)[0] == brute_tree_depth(A)


def test_tree_width_fixtures():
    assert tree_width(zoo.lin(1))[0] == 0
    assert tree_width(zoo.path(4))[0] == 1
    assert tree_width(zoo.clique(3))[0] == 2
    assert tree_width(zoo.cycle(5))[0] == 2


def test_tree_width_witness_verifies():
    for A in (zoo.edge(), zoo.clique(4), zoo.cycle(5), zoo.path(5)):
        width, T = tree_width(A)
        ok, msg = verify_tree_decomposition(T, gaifman_graph(A))
        assert ok, msg
        assert T.width == width


@settings(max_examples=20)
@given(structures(max_size=4))
def test_tree_width_matches_bruteforce(A):
    assert tree_width(A)[0] == brute_tree_width(A)


def test_tree_width_random_seeded_structures_vs_bruteforce():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(1, 6)
        universe = [f"v{i}" for i in range(n)]
        tups = [[u, v] for u in universe for v in universe
                if u != v and rng.random() < 0.4]
        A = validate_structure({"R": 2}, universe, {"R": tups})
        assert tree_width(A)[0] == brute_tree_width(A)
        assert tree_depth(A)[0] == brute_tree_depth(A)


def test_solver_bounds():
    big = validate_structure({"R": 1}, [f"v{i}" for i in range(21)], {"R": []})
    with pytest.raises(BoundExceeded):
        tree_depth(big)
    with pytest.raises(BoundExceeded):
        tree_width(big)


def test_verify_forest_cover_rejects_incomparable_edge():
    A = zoo.edge()
    bad = ForestCover({"a": None, "b": None})
    ok, msg = verify_forest_cover(bad, gaifman_graph(A))
    assert not ok and "incomparable" in msg


def test_verify_forest_cover_rejects_cycle():
    A = zoo.edge()
    bad = ForestCover({"a": "b", "b": "a"})
    ok, msg = verify_forest_cover(bad, gaifman_graph(A))
    assert not ok


@contextmanager
def deadline(seconds: int):
    """Fail, instead of hanging, when the body runs past `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_verify_forest_cover_rejects_parent_outside_the_nodes():
    A = validate_structure({"E": 2}, ["x", "y"], {"E": [["x", "y"]]})
    bad = ForestCover({"x": None, "y": "zz"})
    ok, msg = verify_forest_cover(bad, gaifman_graph(A))
    assert not ok and "'zz'" in msg and "not a node" in msg


def test_verify_tree_decomposition_rejects_cycle_that_avoids_the_root():
    A = zoo.edge()
    bags = {"r": frozenset({"a", "b"}), "b": frozenset({"a"}), "c": frozenset({"a"})}
    T = TreeDecomposition(("r", "b", "c"), {"r": None, "b": "c", "c": "b"}, bags)
    with deadline(5):
        ok, msg = verify_tree_decomposition(T, gaifman_graph(A))
    assert not ok and "cycle" in msg


def test_verify_tree_decomposition_rejects_parent_outside_the_nodes():
    A = zoo.edge()
    bags = {"r": frozenset({"a", "b"}), "b": frozenset({"a"})}
    T = TreeDecomposition(("r", "b"), {"r": None, "b": "zz"}, bags)
    ok, msg = verify_tree_decomposition(T, gaifman_graph(A))
    assert not ok and "'zz'" in msg and "not a node" in msg
    T = TreeDecomposition(("r", "b"), {"r": None}, bags)
    ok, msg = verify_tree_decomposition(T, gaifman_graph(A))
    assert not ok and "exactly the nodes" in msg


def test_verify_tree_decomposition_rejects_two_roots():
    A = zoo.edge()
    bags = {"r": frozenset({"a", "b"}), "s": frozenset({"a"})}
    T = TreeDecomposition(("r", "s"), {"r": None, "s": None}, bags)
    ok, msg = verify_tree_decomposition(T, gaifman_graph(A))
    assert not ok and "2 roots" in msg


def test_tree_depth_equals_min_over_all_covers_exhaustively():
    for A in (zoo.path(4), zoo.cycle(4), zoo.clique(3)):
        G = gaifman_graph(A)
        heights = []
        for parent in all_forests(G.vertices):
            if is_cover_of(parent, sorted(G.edges)):
                cover = ForestCover(parent)
                ok, _ = verify_forest_cover(cover, G)
                assert ok
                heights.append(cover.height)
        assert tree_depth(A)[0] == min(heights)


def test_pebble_cover_from_single_bag():
    T = TreeDecomposition(("n",), {"n": None}, {"n": frozenset(["a"])})
    C = decomposition_to_pebble_cover(T, 1)
    assert C.cover.parent == {"a": None}
    assert C.pebbles == {"a": 1}


def test_pebble_cover_from_edge_path_decomposition():
    T = TreeDecomposition(("n",), {"n": None}, {"n": frozenset(["a", "b"])})
    C = decomposition_to_pebble_cover(T, 2)
    chain = C.cover.chain("b") if C.cover.parent["a"] is None else C.cover.chain("a")
    assert len(chain) == 2
    assert sorted(C.pebbles.values()) == [1, 2]
    ok, msg = verify_pebbled_forest_cover(C, gaifman_graph(zoo.edge2()), 2)
    assert ok, msg


def test_pebble_cover_from_triangle_single_bag():
    T = TreeDecomposition(("n",), {"n": None}, {"n": frozenset(["v0", "v1", "v2"])})
    C = decomposition_to_pebble_cover(T, 3)
    assert sorted(C.pebbles.values()) == [1, 2, 3]
    assert max(len(C.cover.chain(v)) for v in C.cover.parent) == 3
    ok, msg = verify_pebbled_forest_cover(C, gaifman_graph(zoo.clique(3)), 3)
    assert ok, msg


def _graph(vertices, edges):
    return validate_structure({"R": 2}, list(vertices),
                              {"R": [[x, y] for u, v in edges for x, y in ((u, v), (v, u))]})


def _grid(r, c):
    name = {(i, j): f"g{i}_{j}" for i in range(r) for j in range(c)}
    return _graph(name.values(), [(name[i, j], name[i + di, j + dj]) for (i, j) in name
                                  for di, dj in ((0, 1), (1, 0)) if (i + di, j + dj) in name])


@pytest.mark.parametrize("spare", [0, 1])
@pytest.mark.parametrize("A, parent, pebbles", [
    (_grid(3, 3),
     {"g0_0": None, "g0_1": "g0_0", "g0_2": "g0_1", "g1_0": "g0_2", "g1_1": "g1_0",
      "g1_2": "g1_1", "g2_0": "g1_2", "g2_1": "g2_0", "g2_2": "g2_1"},
     {"g0_0": 1, "g0_1": 2, "g0_2": 3, "g1_0": 4, "g1_1": 1, "g1_2": 2, "g2_0": 3,
      "g2_1": 4, "g2_2": 1}),
    (zoo.cycle(6),
     {"v0": None, "v1": "v0", "v2": "v1", "v3": "v2", "v4": "v3", "v5": "v4"},
     {"v0": 1, "v1": 2, "v2": 3, "v3": 2, "v4": 3, "v5": 2}),
    (zoo.clique(4),
     {"v0": None, "v1": "v0", "v2": "v1", "v3": "v2"},
     {"v0": 1, "v1": 2, "v2": 3, "v3": 4}),
    (_graph("abxyz", [("a", "b"), ("x", "y"), ("y", "z"), ("x", "z")]),
     {"a": None, "b": "a", "x": None, "y": "x", "z": "y"},
     {"a": 1, "b": 2, "x": 1, "y": 2, "z": 3})], ids=["grid33", "cycle6", "clique4", "two"])
def test_pebble_cover_of_tree_width_decomposition_is_pinned(A, parent, pebbles, spare):
    width, T = tree_width(A)
    C = decomposition_to_pebble_cover(T, width + 1 + spare)
    assert C.cover.parent == parent and C.pebbles == pebbles


def test_pebble_cover_chains_a_bag_introducing_three_elements():
    # c, d and e are new below {a, b}; c takes pebble 1, free again below b
    T = TreeDecomposition(("r", "s"), {"r": None, "s": "r"},
                          {"r": frozenset("ab"), "s": frozenset("bcde")})
    C = decomposition_to_pebble_cover(T, 4)
    assert C.cover.parent == {"a": None, "b": "a", "c": "b", "d": "c", "e": "d"}
    assert C.pebbles == {"a": 1, "b": 2, "c": 1, "d": 3, "e": 4}


def test_pebble_cover_rejects_wide_decomposition():
    T = TreeDecomposition(("n",), {"n": None}, {"n": frozenset(["a", "b"])})
    with pytest.raises(ValueError, match="not below"):
        decomposition_to_pebble_cover(T, 1)


def test_decomposition_from_one_node_cover():
    C = PebbledForestCover(ForestCover({"a": None}), {"a": 1}, 1)
    T = pebble_cover_to_decomposition(C)
    assert sorted(len(T.bags[n]) for n in T.nodes) == [0, 1]
    assert T.width == 0


def test_decomposition_from_edge_cover():
    C = PebbledForestCover(ForestCover({"a": None, "b": "a"}), {"a": 1, "b": 2}, 2)
    T = pebble_cover_to_decomposition(C)
    assert T.bags["b"] == frozenset({"a", "b"})
    assert T.width == 1


def test_decomposition_active_predecessors_drop_reused_pebbles():
    # chain a < b < c with pebbles 1,2,1 and no edge between a and c
    C = PebbledForestCover(ForestCover({"a": None, "b": "a", "c": "b"}),
                           {"a": 1, "b": 2, "c": 1}, 2)
    T = pebble_cover_to_decomposition(C)
    assert T.bags["c"] == frozenset({"b", "c"})
    assert T.width == 1
    A = validate_structure({"R": 2}, ["a", "b", "c"],
                           {"R": [["a", "b"], ["b", "a"], ["b", "c"], ["c", "b"]]})
    ok, msg = verify_tree_decomposition(T, gaifman_graph(A))
    assert ok, msg


def test_round_trip_through_both_conversions():
    rng = random.Random(21)
    seeded = []
    for n in range(1, 10):
        U = [f"v{i}" for i in range(n)]
        seeded.append(_graph(U, [(u, v) for i, u in enumerate(U) for v in U[i + 1:]
                                 if rng.random() < 0.4]))
    for A in (zoo.clique(3), zoo.cycle(5), zoo.path(4), *seeded):
        width, T = tree_width(A)
        k = width + 1
        G = gaifman_graph(A)
        C = decomposition_to_pebble_cover(T, k)
        ok, msg = verify_pebbled_forest_cover(C, G, k)
        assert ok, msg
        T2 = pebble_cover_to_decomposition(C)
        ok, msg = verify_tree_decomposition(T2, G)
        assert ok, msg
        assert T2.width < k


def test_verify_tree_decomposition_rejects_broken_connectivity():
    A = zoo.path(3)
    T = TreeDecomposition(
        ("x", "y", "z"),
        {"x": None, "y": "x", "z": "y"},
        {"x": frozenset({"v0", "v1"}), "y": frozenset({"v1", "v2"}),
         "z": frozenset({"v0"})})
    ok, msg = verify_tree_decomposition(T, gaifman_graph(A))
    assert not ok and "not connected" in msg


@pytest.mark.parametrize("parent, bags", [
    # b in two sibling bags but not in their parent
    ({"r": None, "s": "r", "t": "r"},
     {"r": {"a"}, "s": {"a", "b"}, "t": {"b"}}),
    # b in the root and a grandchild but not in the child between them
    ({"r": None, "c": "r", "g": "c"},
     {"r": {"a", "b"}, "c": {"a"}, "g": {"b"}})])
def test_verify_tree_decomposition_rejects_disconnected_bags(parent, bags):
    T = TreeDecomposition(tuple(parent), parent, {n: frozenset(b) for n, b in bags.items()})
    ok, msg = verify_tree_decomposition(T, gaifman_graph(zoo.edge()))
    assert not ok and msg == "bags containing 'b' are not connected"


def test_disconnected_structure_through_full_pipeline():
    # two components: an edge and a triangle; decomposition joins under an
    # empty root, the pebble cover stays a forest
    A = validate_structure(
        {"R": 2}, ["a", "b", "x", "y", "z"],
        {"R": [["a", "b"], ["b", "a"],
               ["x", "y"], ["y", "x"], ["y", "z"], ["z", "y"], ["x", "z"], ["z", "x"]]})
    G = gaifman_graph(A)
    width, T = tree_width(A)
    assert width == 2
    ok, msg = verify_tree_decomposition(T, G)
    assert ok, msg
    assert any(not T.bags[n] for n in T.nodes)  # the virtual empty root
    C = decomposition_to_pebble_cover(T, width + 1)
    ok, msg = verify_pebbled_forest_cover(C, G, width + 1)
    assert ok, msg
    assert sum(1 for v in C.cover.parent.values() if v is None) == 2


def test_unary_only_structure_parameters():
    A = validate_structure({"P": 1}, ["a", "b", "c"], {"P": [["a"], ["c"]]})
    assert tree_width(A)[0] == 0
    assert tree_depth(A)[0] == 1
    ok, _ = verify_tree_decomposition(tree_width(A)[1], gaifman_graph(A))
    assert ok


def test_hand_built_path_decomposition_converts():
    # C4 as a path of three bags, width 2
    A = zoo.cycle(4)
    T = TreeDecomposition(
        ("n0", "n1"),
        {"n0": None, "n1": "n0"},
        {"n0": frozenset({"v0", "v1", "v3"}), "n1": frozenset({"v1", "v2", "v3"})})
    ok, msg = verify_tree_decomposition(T, gaifman_graph(A))
    assert ok, msg
    C = decomposition_to_pebble_cover(T, 3)
    ok, msg = verify_pebbled_forest_cover(C, gaifman_graph(A), 3)
    assert ok, msg
    back = pebble_cover_to_decomposition(C)
    ok, msg = verify_tree_decomposition(back, gaifman_graph(A))
    assert ok, msg
    assert back.width < 3


def test_element_named_like_virtual_root_is_handled():
    A = validate_structure({"R": 2}, ["#root", "b", "c", "d"],
                           {"R": [["#root", "b"], ["c", "d"]]})
    G = gaifman_graph(A)
    width, T = tree_width(A)
    ok, msg = verify_tree_decomposition(T, G)
    assert ok, msg
    C = decomposition_to_pebble_cover(T, width + 1)
    back = pebble_cover_to_decomposition(C)
    ok, msg = verify_tree_decomposition(back, G)
    assert ok, msg


def test_json_round_trips():
    width, T = tree_width(zoo.cycle(4))
    T2 = decomposition_from_json(decomposition_to_json(T))
    assert T2.bags == T.bags and T2.parent == T.parent
    depth, F = tree_depth(zoo.path(3))
    F2 = forest_cover_from_json(forest_cover_to_json(F))
    assert F2.parent == F.parent
    C = decomposition_to_pebble_cover(T, width + 1)
    C2 = pebbled_cover_from_json(pebbled_cover_to_json(C))
    assert C2.pebbles == C.pebbles and C2.cover.parent == C.cover.parent


@pytest.mark.parametrize("pebble", [True, 2.0, "2"])
def test_verify_pebbled_cover_rejects_a_pebble_that_is_not_an_int(pebble):
    C = PebbledForestCover(ForestCover({"a": None, "b": "a"}), {"a": pebble, "b": 2}, 2)
    ok, msg = verify_pebbled_forest_cover(C, gaifman_graph(zoo.edge2()))
    assert not ok and msg == "pebble of 'a' not in 1..2"


@pytest.mark.parametrize("pebbles, k", [({"a": 2.9}, 3), ({"a": "2"}, 3), ({"a": True}, 3),
                                        ({"a": 1}, 2.0), ({"a": 1}, "2"), ({"a": 1}, True)])
def test_pebbled_cover_from_json_rejects_a_number_that_is_not_an_int(pebbles, k):
    with pytest.raises(TypeError, match="not an int"):
        pebbled_cover_from_json({"parent": {"a": None}, "pebbles": pebbles, "k": k})


def test_parameter_survey_script_checks_every_witness(monkeypatch, capsys):
    import pathlib
    import runpy
    script = pathlib.Path(__file__).parent.parent / "scripts" / "parameter_survey.py"
    survey = runpy.run_path(str(script))
    monkeypatch.setattr("sys.argv", ["survey", "--max-size", "12"])
    assert survey["main"]() == 0
    assert "FAIL" not in capsys.readouterr().out

    def one_short(A):  # reports one less than its own cover's height
        depth, cover = tree_depth(A)
        return depth - 1, cover

    survey["main"].__globals__["tree_depth"] = one_short
    assert survey["main"]() == 1
    assert "FAIL" in capsys.readouterr().out
