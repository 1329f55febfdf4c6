"""Differential tests of the bitmask tree-width and tree-depth solvers against
the frozenset recursions they replaced (values and full witnesses), of the
bounded tree-width search against the full subset table it replaced, and
against brute force (values)."""

import json
import random

from oracles import (brute_tree_depth, brute_tree_depth_by_forests, brute_tree_width,
                     tree_depth_reference, tree_width_reference, tree_width_table)

from gamecomonads import zoo
from gamecomonads.cli import main
from gamecomonads.decomposition import (decomposition_to_json, forest_cover_from_json,
                                        decomposition_from_json, forest_cover_to_json,
                                        tree_depth, tree_width, verify_forest_cover,
                                        verify_tree_decomposition)
from gamecomonads.structures import gaifman_graph, structure_to_dict, validate_structure


def graph(universe, edges):
    return validate_structure({"E": 2}, list(universe), {"E": [list(e) for e in edges]})


def random_graph(rng: random.Random):
    """At most 10 vertices listed in a shuffled order; sparse draws leave the
    graph disconnected and some vertices isolated."""
    u = [f"v{i}" for i in range(rng.randint(1, 10))]
    rng.shuffle(u)
    p = rng.choice((0.1, 0.2, 0.35, 0.6))
    return graph(u, [(x, y) for i, x in enumerate(u) for y in u[i + 1:] if rng.random() < p])


def random_mixed(rng: random.Random):
    """At most 8 elements in a shuffled order, with a ternary, a binary and a
    unary relation."""
    u = [f"x{i}" for i in range(rng.randint(1, 8))]
    rng.shuffle(u)
    return validate_structure({"T": 3, "E": 2, "P": 1}, u, {
        "T": [rng.sample(u, 3) for _ in range(rng.randint(0, 2))] if len(u) >= 3 else [],
        "E": [[x, y] for x in u for y in u if rng.random() < 0.08],
        "P": [[x] for x in u if rng.random() < 0.5]})


def grid(r: int, c: int):
    name = {(i, j): f"g{i}_{j}" for i in range(r) for j in range(c)}
    edges = [(name[i, j], name[i + di, j + dj]) for (i, j) in name
             for di, dj in ((0, 1), (1, 0)) if (i + di, j + dj) in name]
    return graph(name.values(), edges)


def biclique(a: int, b: int):
    left, right = [f"l{i}" for i in range(a)], [f"r{j}" for j in range(b)]
    return graph(left + right, [(x, y) for x in left for y in right])


def families():
    out = [zoo.path(n) for n in (1, 2, 5, 8)] + [zoo.cycle(n) for n in (3, 6, 9)]
    out += [zoo.clique(n) for n in (1, 4, 6)] + [grid(2, 4), grid(3, 3), grid(3, 4)]
    out += [biclique(a, b) for a, b in ((1, 5), (2, 3), (3, 3), (2, 6))]
    return out


def assert_same_as_reference(A):
    width, T = tree_width(A)
    ref_width, ref_T = tree_width_reference(A)
    assert width == ref_width
    assert decomposition_to_json(T) == decomposition_to_json(ref_T)
    assert list(T.parent.items()) == list(ref_T.parent.items())
    depth, F = tree_depth(A)
    ref_depth, ref_F = tree_depth_reference(A)
    assert depth == ref_depth
    assert forest_cover_to_json(F) == forest_cover_to_json(ref_F)
    assert list(F.parent.items()) == list(ref_F.parent.items())


def test_families_match_frozenset_references():
    for A in families():
        assert_same_as_reference(A)


def test_random_graphs_match_frozenset_references():
    rng = random.Random(20)
    for _ in range(150):
        assert_same_as_reference(random_graph(rng))


def test_ternary_and_unary_structures_match_frozenset_references():
    rng = random.Random(22)
    for _ in range(40):
        assert_same_as_reference(random_mixed(rng))


def test_values_match_bruteforce_up_to_six_vertices():
    rng = random.Random(21)
    small = [A for A in families() if len(A.universe) <= 6]
    for _ in range(40):
        A = random_graph(rng)
        while len(A.universe) > 6:
            A = random_graph(rng)
        small.append(A)
    for A in small:
        assert tree_width(A)[0] == brute_tree_width(A)
        assert tree_depth(A)[0] == brute_tree_depth(A)


def test_order_bruteforce_matches_forest_enumeration_up_to_five_vertices():
    rng = random.Random(23)
    small = [A for A in families() if len(A.universe) <= 5]
    for _ in range(30):
        A = random_graph(rng)
        while len(A.universe) > 5:
            A = random_graph(rng)
        small.append(A)
    for A in small:
        assert brute_tree_depth(A) == brute_tree_depth_by_forests(A)


def test_root_scan_stop_matches_reference_on_larger_graphs():
    # 11-13 vertices: deep enough that the scan stops early at most masks
    rng = random.Random(24)
    for p in (0.15, 0.25, 0.35, 0.5, 0.7):
        for _ in range(4):
            u = [f"v{i}" for i in range(rng.randint(11, 13))]
            rng.shuffle(u)
            A = graph(u, [(x, y) for i, x in enumerate(u) for y in u[i + 1:] if rng.random() < p])
            depth, F = tree_depth(A)
            ref_depth, ref_F = tree_depth_reference(A)
            assert depth == ref_depth
            assert forest_cover_to_json(F) == forest_cover_to_json(ref_F)


def test_param_tree_depth_at_the_bound(tmp_path, capsys):
    A = grid(4, 5)
    assert len(A.universe) == 20
    path = tmp_path / "grid45.json"
    path.write_text(json.dumps(structure_to_dict(A)))
    assert main(["param", "--kind", "tree-depth", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == 8
    cover = forest_cover_from_json(out["witness"])
    assert verify_forest_cover(cover, gaifman_graph(A)) == (True, None)
    assert cover.height == 8


def test_bounded_search_matches_full_table_on_larger_graphs():
    # 13-16 vertices, where most of the 2^n table goes unvisited; sparse
    # draws leave some graphs disconnected
    rng = random.Random(25)
    cases = [zoo.clique(n) for n in (12, 14)] + [zoo.path(n) for n in (13, 16)]
    cases += [grid(3, 5), grid(4, 4), grid(2, 7)]
    for p in (0.15, 0.25, 0.35, 0.5, 0.7):
        for _ in range(2):
            u = [f"v{i}" for i in range(rng.randint(13, 16))]
            rng.shuffle(u)
            cases.append(graph(u, [(x, y) for i, x in enumerate(u) for y in u[i + 1:]
                                   if rng.random() < p]))
    disconnected = 0
    for A in cases:
        width, T = tree_width(A)
        ref_width, ref_T = tree_width_table(A)
        assert width == ref_width
        assert decomposition_to_json(T) == decomposition_to_json(ref_T)
        disconnected += any(not T.bags[node] for node in T.nodes)  # the virtual root
    assert disconnected


def test_tree_depth_of_cliques_stops_at_a_universal_root(tmp_path, capsys):
    for n in range(1, 11):
        A = zoo.clique(n)
        depth, F = tree_depth(A)
        ref_depth, ref_F = tree_depth_reference(A)
        assert depth == ref_depth == n
        assert forest_cover_to_json(F) == forest_cover_to_json(ref_F)
    A = zoo.clique(20)
    path = tmp_path / "k20.json"
    path.write_text(json.dumps(structure_to_dict(A)))
    assert main(["param", "--kind", "tree-depth", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == 20
    cover = forest_cover_from_json(out["witness"])
    assert verify_forest_cover(cover, gaifman_graph(A)) == (True, None)
    assert cover.height == 20


def test_param_tree_width_at_the_bound(tmp_path, capsys):
    for name, A, value in (("grid36", grid(3, 6), 3), ("k18", zoo.clique(18), 17),
                           ("path18", zoo.path(18), 1)):
        assert len(A.universe) == 18
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(structure_to_dict(A)))
        assert main(["param", "--kind", "tree-width", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == value
        T = decomposition_from_json(out["witness"])
        assert verify_tree_decomposition(T, gaifman_graph(A)) == (True, None)
        assert T.width == value


def test_witnesses_at_the_bound_verify():
    """The decompositions of K18 and the 3x6 grid pass the verifier's
    subtree check."""
    for A, value in ((zoo.clique(18), 17), (grid(3, 6), 3)):
        width, T = tree_width(A)
        assert width == value
        assert verify_tree_decomposition(T, gaifman_graph(A)) == (True, None)
