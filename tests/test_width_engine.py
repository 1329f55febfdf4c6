"""Differential tests of the bitmask tree-width and tree-depth solvers against
the frozenset recursions they replaced (values and full witnesses) and
against brute force (values)."""

import random

from oracles import (brute_tree_depth, brute_tree_width, tree_depth_reference,
                     tree_width_reference)

from gamecomonads import zoo
from gamecomonads.decomposition import (decomposition_to_json, forest_cover_to_json,
                                        tree_depth, tree_width)
from gamecomonads.structures import validate_structure


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
