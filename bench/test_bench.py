"""Tests of the benchmark's oracles and checks on tiny cases.

Run from the root of the checkout: python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

import checks
import oracles
import run
import workloads as W
from tracing import Tracer

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from gamecomonads import coalgebra, decomposition, equiv  # noqa: E402
from gamecomonads.structures import structure_from_dict  # noqa: E402


def lib(S):
    return structure_from_dict(S)


def random_graph(n, rng, p=0.5):
    u = [f"v{i}" for i in range(n)]
    return W._graph(u, [(u[i], u[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def test_linear_order_recursions_match_brute_force():
    for m in range(1, 5):
        for n in range(1, 5):
            for k in (1, 2, 3):
                A, B = W.lin(m), W.lin(n)
                for tier in (1, 2, 3):
                    assert oracles.lin_verdict(m, n, k, tier) == oracles.ef_verdict(A, B, k, tier)


def test_ef_brute_force_matches_library_on_tiny_structures():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 3)
        A, B = W.random_structure(n, rng), W.random_structure(n + rng.randint(0, 1), rng)
        for k in (1, 2):
            for tier in (1, 2, 3):
                assert oracles.ef_verdict(A, B, k, tier) == \
                    equiv.decide("ef", tier, lib(A), lib(B), k)["equiv"]


def test_tuple_refinement_matches_pebble_games():
    # pins the index convention: k pebbles <-> refinement of k-tuples
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 4)
        A, B = random_graph(n, rng), random_graph(n, rng)
        for k in (2, 3):
            assert oracles.tuple_refinement_equiv(A, B, k, counting=False) == \
                equiv.pebble_back_and_forth(lib(A), lib(B), k, build_certificate=False)[0]
            assert oracles.tuple_refinement_equiv(A, B, k, counting=True) == \
                equiv.pebble_bijection_equiv(lib(A), lib(B), k, build_certificate=False)[0]
        assert oracles.tuple_refinement_equiv(A, B, 2, counting=True) == \
            (not oracles.colour_refinement_distinguishes(A, B))


def test_pebble_existential_oracle_on_known_pairs():
    c6, c3c3 = W.cycle(6), W.union(W.cycle(3), W.cycle(3))
    assert oracles.pebble_existential_verdict(c6, c3c3, 3) is False   # triangle, tw 2 < 3
    assert oracles.pebble_existential_verdict(c6, c3c3, 2) is None    # tw 2 is not below 2
    assert oracles.pebble_existential_verdict(W.cycle(4), W.path(5), 2) is True
    assert not oracles.hom_exists(W.cycle(5), W.path(3))


def test_modal_oracles_match_library():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 6)
        P = W.kripke(n, 1, rng)
        Q = W.kripke(n, 1, rng) if rng.random() < 0.5 else W.relabel(P, rng)
        for k in (1, 2, 3):
            for tier in (1, 2, 3):
                assert oracles.modal_verdict(P, Q, k, tier) == \
                    equiv.decide("modal", tier, lib(P), lib(Q), k)["equiv"]


def test_modal_depth_oracle_matches_library():
    rng = random.Random(9)
    for n in (1, 2, 5, 12):
        for S in (W.sync_tree(n, rng), W.dag(max(n, 3), rng)):
            P = lib(S)
            assert oracles.modal_depth(S) == (coalgebra.modal_depth(P),
                                              coalgebra.modal_coalgebra_number(P))


@pytest.mark.parametrize("kind,a,b", W.FAMILIES[:12] + [("grid", 2, 3), ("biclique", 2, 3)])
def test_family_values_match_exact_oracles(kind, a, b):
    S = {"path": lambda: W.path(a), "cycle": lambda: W.cycle(a), "clique": lambda: W.clique(a),
         "grid": lambda: W.grid(a, b), "biclique": lambda: W.biclique(a, b)}[kind]()
    V, E = oracles.gaifman(S)
    tw, td = oracles.family_widths(kind, a, b)
    assert oracles.tree_width(V, E) == tw
    if td is not None and len(V) <= 12:
        assert oracles.tree_depth(V, E) == td
    assert oracles.degeneracy(V, E) <= tw


def test_width_oracles_and_witness_checks_match_library():
    rng = random.Random(11)
    for _ in range(10):
        S = random_graph(rng.randint(2, 8), rng, 0.4)
        V, E = oracles.gaifman(S)
        tw, T = decomposition.tree_width(lib(S))
        td, F = decomposition.tree_depth(lib(S))
        assert (tw, td) == (oracles.tree_width(V, E), oracles.tree_depth(V, E))
        tw_json = decomposition.decomposition_to_json(T)
        assert oracles.check_tree_decomposition(tw_json, V, E, tw) is None
        assert oracles.check_forest_cover(decomposition.forest_cover_to_json(F), V, E, td) is None
        alpha = coalgebra.construct_coalgebra("pebble", lib(S), tw + 1)
        assert oracles.check_pebble_coalgebra(alpha, S, tw + 1) is None
        if E:
            u, v = sorted(E)[0]
            broken = {**tw_json, "bags": {n: [x for x in bag if x != u]
                                          for n, bag in tw_json["bags"].items()}}
            assert oracles.check_tree_decomposition(broken, V, E, tw) is not None
            assert oracles.check_pebble_coalgebra({**alpha, u: [[1, v], [1, u]]}, S, tw + 1)


def test_checks_classify_outputs():
    call = {"kind": "check", "game": "ef", "tier": 2, "k": 2, "pair": "p", "expect": {"equiv": False}}
    verdict = {"equiv": False, "tier": 2, "comonad": "ef", "k": 2, "certificate": None}
    assert checks.check_call(call, 1, json.dumps(verdict), {})[0] == checks.OK
    assert checks.check_call(call, 0, json.dumps({**verdict, "equiv": True}), {})[0] == checks.WRONG
    assert checks.check_call(call, 2, "", {})[0] == checks.FAILED
    calls = [{**call, "tier": t} for t in (1, 2)]
    assert checks.cross_check(calls, [{"equiv": False}, {"equiv": True}])[0][0] == 1


def test_seeds_change_names_not_sizes():
    for name in W.WORKLOADS:
        a, b = W.build(name, 1), W.build(name, 2)
        assert [c["argv"][:-2] for c in a.calls] == [c["argv"][:-2] for c in b.calls]
        assert {k: len(S["universe"]) for k, S in a.files.items()} == \
            {k: len(S["universe"]) for k, S in b.files.items()}
        assert a.files != b.files
        assert W.build(name, 1).files == a.files


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    res = {"scaled_pass_s": [2.0, 1.0], "scaled_call_s": [0.1] * 20, "peak_rss_kb": 2048,
           "reference_pass_s": 1.0, "layers": Tracer().metrics(1)}
    for key, metrics in (("end_to_end", run.end_to_end(res, 0.1)), ("per_layer", run.per_layer(res))):
        assert {m["name"]: m["unit"] for m in spec[key]} == {n: u for n, (_, u) in metrics.items()}


def test_harrell_davis_quantile():
    from math import comb
    for a, b, x in ((2, 3, 0.4), (9, 2, 0.85), (30, 4, 0.9)):
        exact = sum(comb(a + b - 1, j) * x ** j * (1 - x) ** (a + b - 1 - j) for j in range(a, a + b))
        assert abs(run._beta_cdf(a, b, x) - exact) < 1e-12
    grid = [i / 1000 for i in range(1001)]
    assert abs(run.quantile(grid, 0.9) - 0.9) < 1e-3
    assert abs(run.quantile(grid, 0.5) - 0.5) < 1e-3
    assert abs(run.quantile([0.25] * 50, 0.9) - 0.25) < 1e-12
