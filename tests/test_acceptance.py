"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; everything is seeded and deterministic.
"""

import json
import pathlib
import random
import time

from oracles import (all_digraphs, bisim_approx, brute_graded_bisim, graded_bisim_approx,
                     lin_closed_form, lin_game_textbook, simulation_approx,
                     theta_fixpoint_oracle)

from gamecomonads import zoo
from gamecomonads.cli import main
from gamecomonads.coalgebra import (construct_coalgebra, ef_coalgebra_to_forest_cover,
                                    ef_to_pebble_coalgebra, forest_cover_to_ef_coalgebra,
                                    pebble_coalgebra_number, verify_coalgebra)
from gamecomonads.decomposition import (pebble_cover_to_decomposition, tree_depth,
                                        tree_width, verify_pebbled_forest_cover,
                                        verify_tree_decomposition)
from gamecomonads.ef import ef_game_exists, ef_materialize
from gamecomonads.equiv import (back_and_forth_equiv, bijection_game_equiv, decide,
                                ef_back_and_forth, mutual_existential,
                                pebble_back_and_forth, pebble_bijection_equiv)
from gamecomonads.lawcheck import (GenConfig, random_pair, random_pointed_pair,
                                   run_law_suite)
from gamecomonads.modal import graded_bisim_game, modal_back_and_forth, modal_unfold
from gamecomonads.structures import (find_homomorphism, gaifman_graph,
                                     load_structure_file, validate_structure)

MODULE_START = time.monotonic()
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fixture(name: str):
    return load_structure_file(str(FIXTURES / f"{name}.json"))


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_comonad_law_suite():
    start = time.monotonic()
    cfg = GenConfig(seed=101, iterations=200, max_universe_size=4, max_arity=3,
                    ks=(1, 2, 3), pebble_play_length=3)
    rep = run_law_suite(cfg)
    elapsed = time.monotonic() - start
    report(1, rep.passed and elapsed < 60,
           f"Kleisli equations on 200 random structures, k in {{1,2,3}}: "
           f"{rep.checks_run} checks, {elapsed:.1f}s (budget 60s), "
           f"failures: {rep.first_failure}")


def test_criterion_02_rank_game_vs_materialized_hom():
    rng = random.Random(202)
    cfg = GenConfig(seed=202, max_universe_size=3, max_arity=2, density=0.35)
    disagreements = 0
    for i in range(100):
        A, B = random_pair(cfg, rng, max_size=3)
        k = rng.choice((1, 2))
        game = ef_game_exists(A, B, k, build_strategy=False)[0]
        hom = find_homomorphism(ef_materialize(A, k), B) is not None
        disagreements += (game != hom)
    report(2, disagreements == 0,
           f"existential rank game vs hom into materialized plays, "
           f"100 random pairs (sizes <= 3, k <= 2): {disagreements} disagreements")


def test_criterion_03_simulation_vs_hom_into_unfolding():
    rng = random.Random(303)
    disagreements = 0
    for i in range(100):
        P, Q = random_pointed_pair(rng, max_worlds=4)
        k = rng.choice((1, 2, 3))
        sim = simulation_approx(P, Q, k)
        U = modal_unfold(P, k)
        hom = find_homomorphism(U.base, Q.base, pre={U.point: Q.point}) is not None
        disagreements += (sim != hom)
    report(3, disagreements == 0,
           f"simulation approximant vs pointed hom into unfolding, "
           f"100 random pointed pairs (<= 4 worlds, k <= 3): {disagreements} disagreements")


def test_criterion_04_theta_oracle_vs_back_and_forth():
    digraphs = all_digraphs(2)
    runs = disagreements = 0
    for A in digraphs:
        for B in digraphs:
            for k in (1, 2):
                runs += 1
                oracle = theta_fixpoint_oracle(A, B, k)
                game = ef_back_and_forth(A, B, k, build_certificate=False)[0]
                disagreements += (oracle != game)
    report(4, disagreements == 0,
           f"descending-fixpoint oracle vs back-and-forth game on all "
           f"{len(digraphs)}x{len(digraphs)} digraph pairs of size <= 2, k <= 2 "
           f"({runs} runs): {disagreements} disagreements")


def test_criterion_05_linear_order_fixture():
    mismatches = 0
    for m in range(1, 9):
        for n in range(1, 9):
            for k in (1, 2, 3):
                engine = ef_back_and_forth(zoo.lin(m), zoo.lin(n), k,
                                           build_certificate=False)[0]
                textbook = lin_game_textbook(m, n, k)
                closed = lin_closed_form(m, n, k)
                mismatches += (engine != textbook) + (engine != closed)
    report(5, mismatches == 0,
           f"back-and-forth on LIN(m), LIN(n) vs textbook recursion and closed "
           f"form, all m,n <= 8, k <= 3: {mismatches} mismatches")


def test_criterion_06_tier_ordering_and_strictness():
    rng = random.Random(606)
    cfg = GenConfig(seed=606, max_universe_size=3, max_arity=2, density=0.35)
    violations = 0
    for _ in range(40):
        A, B = random_pair(cfg, rng, max_size=3)
        for tag in ("ef", "pebble"):
            for k in (1, 2):
                t3 = decide(tag, 3, A, B, k)["equiv"]
                t2 = decide(tag, 2, A, B, k)["equiv"]
                t1 = decide(tag, 1, A, B, k)["equiv"]
                violations += (t3 and not t2) + (t2 and not t1)
    for _ in range(30):
        P, Q = random_pointed_pair(rng, max_worlds=3)
        for k in (1, 2, 3):
            t3 = decide("modal", 3, P, Q, k)["equiv"]
            t2 = decide("modal", 2, P, Q, k)["equiv"]
            t1 = decide("modal", 1, P, Q, k)["equiv"]
            violations += (t3 and not t2) + (t2 and not t1)

    strict = []
    # rank: mutual existential holds, back-and-forth fails (stored fixtures)
    A, B = fixture("edge2"), fixture("path3")
    strict.append(mutual_existential("ef", A, B, 2)[0]
                  and not ef_back_and_forth(A, B, 2, build_certificate=False)[0])
    C, D = fixture("one-empty"), fixture("two-empty")
    strict.append(ef_back_and_forth(C, D, 1, build_certificate=False)[0]
                  and not bijection_game_equiv(C, D, 1)[0])
    # pebble
    strict.append(mutual_existential("pebble", A, B, 2)[0]
                  and not pebble_back_and_forth(A, B, 2, build_certificate=False)[0])
    K3, K4 = fixture("k3"), fixture("k4")
    strict.append(pebble_back_and_forth(K3, K4, 2, build_certificate=False)[0]
                  and not pebble_bijection_equiv(K3, K4, 2)[0])
    # modal
    MA, MB = fixture("branchy-marked"), fixture("straight-marked")
    strict.append(mutual_existential("modal", MA, MB, 2)[0]
                  and not back_and_forth_equiv("modal", MA, MB, 1)[0])
    M1, M2 = fixture("one-successor"), fixture("two-successors")
    strict.append(back_and_forth_equiv("modal", M1, M2, 2)[0]
                  and not graded_bisim_game(M1, M2, 1, build_certificate=False)[0])

    report(6, violations == 0 and all(strict),
           f"tier ordering on random pairs ({violations} violations) and "
           f"strictness fixtures per comonad ({sum(strict)}/6 exhibited)")


def test_criterion_07_tree_depth_is_minimal_coalgebra_index():
    rng = random.Random(707)
    fixtures = [zoo.lin(1), zoo.edge(), zoo.clique(3), zoo.clique(4),
                zoo.path(5), zoo.cycle(5), zoo.path(6)]
    while len(fixtures) < 50:
        n = rng.randint(1, 6)
        universe = [f"v{i}" for i in range(n)]
        tups = [[u, v] for u in universe for v in universe
                if u != v and rng.random() < 0.4]
        fixtures.append(validate_structure({"R": 2}, universe, {"R": tups}))
    bad = 0
    for A in fixtures:
        depth, cover = tree_depth(A)
        success_at = next(k for k in range(1, len(A.universe) + 1)
                          if construct_coalgebra("ef", A, k) is not None)
        if success_at != depth:
            bad += 1
            continue
        alpha = forest_cover_to_ef_coalgebra(cover, depth)
        ok, _ = verify_coalgebra("ef", A, depth, alpha)
        back = ef_coalgebra_to_forest_cover(A, depth, alpha)
        if not ok or back.parent != cover.parent:
            bad += 1
    report(7, bad == 0,
           f"tree-depth = least coalgebra index and cover/coalgebra round-trip "
           f"identity on 50 fixtures (|A| <= 6): {bad} failures")


def test_criterion_08_tree_width_is_pebble_coalgebra_number_minus_one():
    rng = random.Random(808)
    fixtures = [zoo.lin(1), zoo.clique(3), zoo.path(4), zoo.path(6), zoo.cycle(6)]
    while len(fixtures) < 50:
        n = rng.randint(1, 8)
        universe = [f"v{i}" for i in range(n)]
        tups = [[u, v] for u in universe for v in universe
                if u != v and rng.random() < 0.35]
        fixtures.append(validate_structure({"R": 2}, universe, {"R": tups}))
    bad = 0
    for A in fixtures:
        width, T = tree_width(A)
        G = gaifman_graph(A)
        kappa, cover = pebble_coalgebra_number(A)
        if kappa != width + 1:
            bad += 1
            continue
        ok1, _ = verify_pebbled_forest_cover(cover, G, kappa)
        T2 = pebble_cover_to_decomposition(cover)
        ok2, _ = verify_tree_decomposition(T2, G)
        if not (ok1 and ok2 and T2.width < kappa):
            bad += 1
    named = (pebble_coalgebra_number(zoo.clique(3))[0] == 3
             and pebble_coalgebra_number(zoo.path(4))[0] == 2
             and pebble_coalgebra_number(zoo.lin(1))[0] == 1)
    report(8, bad == 0 and named,
           f"tree-width + 1 = pebble coalgebra number with verified conversions "
           f"on 50 fixtures (|A| <= 8): {bad} failures; "
           f"K3 -> 3, tree -> 2, vertex -> 1: {named}")


def test_criterion_09_width_bounded_by_depth_via_morphism():
    rng = random.Random(909)
    bad = 0
    for i in range(200):
        n = rng.randint(1, 8)
        universe = [f"v{i}" for i in range(n)]
        tups = [[u, v] for u in universe for v in universe
                if u != v and rng.random() < 0.3]
        A = validate_structure({"R": 2}, universe, {"R": tups})
        depth, cover = tree_depth(A)
        width = tree_width(A)[0]
        if width + 1 > depth:
            bad += 1
            continue
        alpha = forest_cover_to_ef_coalgebra(cover, depth)
        beta = ef_to_pebble_coalgebra(alpha)
        ok, _ = verify_coalgebra("pebble", A, depth, beta)
        if not ok:
            bad += 1
    report(9, bad == 0,
           f"tw + 1 <= td via both solvers and via translated coalgebras on "
           f"200 random structures (|A| <= 8): {bad} failures")


def test_criterion_10_modal_tier_equivalences():
    rng = random.Random(1010)
    disagreements = 0
    for i in range(100):
        P, Q = random_pointed_pair(rng, max_worlds=5)
        k = rng.choice((1, 2, 3, 4))
        game = graded_bisim_game(P, Q, k, build_certificate=False)[0]
        approx = graded_bisim_approx(P, Q, k)
        brute = brute_graded_bisim(P, Q, k)
        bf = modal_back_and_forth(P, Q, k, build_certificate=False)[0]
        bis = bisim_approx(P, Q, k)
        disagreements += (game != approx) + (approx != brute) + (bf != bis)
    report(10, disagreements == 0,
           f"graded game = graded approximant = brute-force bijections, and "
           f"back-and-forth = bisimulation, on 100 random pointed pairs "
           f"(<= 5 worlds, k <= 4): {disagreements} disagreements")


def test_criterion_11_cli_end_to_end(tmp_path, capsys):
    lin2 = str(FIXTURES / "lin2.json")
    lin3 = str(FIXTURES / "lin3.json")
    k3 = str(FIXTURES / "k3.json")
    edge = str(FIXTURES / "edge.json")
    chain = str(FIXTURES / "kripke-chain2.json")
    checks = []
    checks.append(main(["check", "--game", "ef", "--tier", "2", "-k", "2",
                        lin2, lin2]) == 0)
    checks.append(main(["check", "--game", "ef", "--tier", "2", "-k", "2",
                        lin2, lin3]) == 1)
    checks.append(main(["check", "--game", "pebble", "--tier", "1", "-k", "2",
                        lin2, lin3]) == 1)
    checks.append(main(["check", "--game", "modal", "--tier", "3", "-k", "2",
                        chain, chain]) == 0)
    checks.append(main(["check", "--game", "modal", "--tier", "1", "-k", "1",
                        lin2, lin2]) == 2)

    checks.append(main(["param", "--kind", "tree-width", k3]) == 0)
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    checks.append(out["value"] == 2)
    checks.append(main(["param", "--kind", "tree-depth", k3]) == 0)
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    checks.append(out["value"] == 3)
    checks.append(main(["param", "--kind", "modal-depth", chain]) == 0)
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    checks.append(out["value"] == 2)

    checks.append(main(["coalgebra", "--comonad", "ef", "-k", "2", edge,
                        "--out", str(tmp_path / "alpha.json")]) == 0)
    checks.append(main(["coalgebra", "--comonad", "ef", "-k", "1", edge]) == 1)
    checks.append(main(["coalgebra", "--comonad", "ef", "-k", "2", edge,
                        str(tmp_path / "alpha.json")]) == 0)
    cert = tmp_path / "cert.json"
    checks.append(main(["check", "--game", "ef", "--tier", "1", "-k", "2",
                        lin2, lin2, "--cert", str(cert)]) == 0)
    checks.append(cert.exists())
    checks.append(main(["selftest", "--seed", "11", "--iters", "50"]) == 0)
    capsys.readouterr()

    elapsed = time.monotonic() - MODULE_START
    ok = all(checks) and elapsed < 600
    report(11, ok,
           f"CLI end-to-end with documented exit codes ({sum(checks)}/{len(checks)} "
           f"checks) and full acceptance run in {elapsed:.1f}s (budget 600s)")
