import random
import time

import pytest
from hypothesis import given, settings

from oracles import (_bisimulation_levels, _simulation_levels, answers, bisim_approx,
                     brute_graded_bisim, graded_bisim_approx, graded_classes, graded_levels,
                     modal_game_reference, simulation_approx, simulation_strategy)
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


def test_plays_stop_at_the_last_nonempty_depth():
    """Past the longest path from the point no play is added, and the depth
    loop stops there: k far beyond it costs nothing."""
    P = zoo.kripke_chain(2)
    start = time.perf_counter()
    assert modal_plays(P, 10**12) == modal_plays(P, 3)
    assert len(modal_plays(P, 10**12)) == 3
    assert time.perf_counter() - start < 5


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
            expected = certificate(ModalRules(P, Q, k, tier), tier, lambda pos, _, xs, ys: answers(
                tier, xs, ys, lambda x, y: (x, y) in levels[pos[2] - 1]))
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


def _kripke_variants(rng):
    """A random pointed Kripke structure P (a random tree of s- and t-steps
    from the point w0, plus a few random steps) and structures to play it
    against, each with renamed worlds in a shuffled order: a copy, copies
    with p flipped at a world j steps from the point (as (j, Q)), a copy in
    which a world gains a twin successor (bisimilar, not graded
    bisimilar), and an unrelated random structure."""
    n = rng.randint(3, 8)
    worlds = [f"w{i}" for i in range(n)]
    steps = {(rng.choice("st"), worlds[rng.randrange(i)], worlds[i]) for i in range(1, n)}
    steps |= {(rng.choice("st"), rng.choice(worlds), rng.choice(worlds))
              for _ in range(rng.randint(0, n))}
    props = {p: {w for w in worlds if rng.random() < 0.4} for p in "pq"}

    def pointed(worlds, steps, props, name=lambda w: w):
        order = [name(w) for w in worlds]
        rng.shuffle(order)
        return zoo.kripke(order, name("w0"), {lab: [(name(u), name(v)) for lb, u, v in steps
                                                    if lb == lab] for lab in "st"},
                          {p: [name(w) for w in ws] for p, ws in props.items()})

    def renamed(w):
        return "v" + w[1:]

    distance, frontier = {"w0": 0}, ["w0"]
    while frontier:
        nxt = []
        for _, u, v in sorted(steps):
            if u in frontier and v not in distance:
                distance[v] = distance[u] + 1
                nxt.append(v)
        frontier = nxt
    P = pointed(worlds, steps, props)
    out = [(0, pointed(worlds, steps, props, renamed))]
    for j in range(1, 5):
        at = [w for w in worlds if distance.get(w) == j]
        if at:
            w = rng.choice(at)
            out.append((j, pointed(worlds, steps, {**props, "p": props["p"] ^ {w}}, renamed)))
    lab, u, v = rng.choice(sorted(steps))  # w9 copies v's steps and props; u -lab-> w9
    twin = steps | {(lab, u, "w9")} | {(lb, "w9", y) for lb, x, y in steps if x == v}
    out.append((None, pointed(worlds + ["w9"], twin,
                              {p: ws | ({"w9"} if v in ws else set()) for p, ws in props.items()},
                              renamed)))
    other = [f"w{i}" for i in range(rng.randint(1, 6))]
    out.append((None, pointed(other, {(rng.choice("st"), rng.choice(other), rng.choice(other))
                                      for _ in range(rng.randint(0, 2 * len(other)))},
                              {p: {w for w in other if rng.random() < 0.4} for p in "pq"})))
    return P, out


def test_refinement_matches_the_pairwise_sweep():
    """Modal tiers 2 and 3 by colour refinement give the verdicts and
    certificates of the pairwise sweep they replaced, on seeded random
    pairs, at every k from 1 to past stabilisation and at k = 10**12.  The
    pairs include propositions flipped 1-4 steps from the point and twin
    successors, on which a set in place of the multiset at tier 3 would
    answer wrongly."""
    rng = random.Random(25)
    flipped, graded_only = set(), 0
    for _ in range(40):
        P, variants = _kripke_variants(rng)
        for j, Q in variants:
            flipped.add(j)
            top = len(P.base.universe) + len(Q.base.universe) + 2
            for k in [*range(1, top), 10**12]:
                won = {}
                for tier in (2, 3):
                    expected = modal_game_reference(P, Q, k, tier)
                    won[tier] = modal_game(P, Q, k, tier, build_certificate=False)[0]
                    assert won[tier] == expected[0], (P, Q, k, tier)
                    assert modal_game(P, Q, k, tier) == expected, (P, Q, k, tier)
                graded_only += won[2] and not won[3]
    assert flipped >= {1, 2, 3, 4} and graded_only >= 20, (flipped, graded_only)


def test_kripke_view_matches_a_scan_of_the_relations():
    """Successors in universe order and profiles, against a scan of every
    world and tuple; worlds with no successor along a label or no
    proposition get () and the empty set."""
    import random
    rng = random.Random(23)
    for _ in range(200):
        worlds = [f"w{i}" for i in rng.sample(range(40), rng.randint(1, 9))]
        sig = {"a": 2, "b": 2, "p": 1, "q": 1, "r": 1}
        rels = {name: [[rng.choice(worlds) for _ in range(ar)]
                       for _ in range(rng.randint(0, 2 * len(worlds)))]
                for name, ar in sig.items()}
        A = validate_structure(sig, worlds, rels)
        K = kripke_view(A)
        assert K.transitions == {"a": A.relations["a"], "b": A.relations["b"]}
        assert K.props == {n: frozenset(t[0] for t in A.relations[n]) for n in "pqr"}
        for w in worlds:
            for label in "ab":
                assert K.successors(w, label) == tuple(
                    v for v in worlds if (w, v) in A.relations[label]), (w, label)
            assert K.profile(w) == frozenset(n for n in "pqr" if (w,) in A.relations[n]), w
