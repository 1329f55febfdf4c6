import json
import random
from dataclasses import replace

import pytest

from gamecomonads import zoo
from gamecomonads.coalgebra import COMONADS
from gamecomonads.ef import EF, coextend_play, ef_plays
from gamecomonads.lawcheck import (GenConfig, ef_law_failure, modal_law_failure,
                                   pebble_law_failure, random_pair,
                                   random_pointed, random_structure,
                                   run_law_suite)
from gamecomonads.modal import MODAL
from gamecomonads.pebble import PEBBLE
from gamecomonads.structures import Structure


def test_genconfig_validation():
    with pytest.raises(ValueError):
        GenConfig(max_universe_size=0)
    with pytest.raises(ValueError):
        GenConfig(density=1.5)
    with pytest.raises(ValueError):
        GenConfig(ks=())
    with pytest.raises(ValueError):
        GenConfig(max_universe_size=10, ks=(6,))  # blows the materialization cap
    with pytest.raises(ValueError):
        GenConfig(pebble_play_length=5)  # 12 moves: 271,452 pebble plays
    with pytest.raises(ValueError):
        GenConfig(pebble_play_length=0)


def test_random_structure_deterministic_and_valid():
    cfg = GenConfig(seed=3, iterations=1)
    A = random_structure(cfg)
    B = random_structure(cfg)
    assert A.universe == B.universe
    assert A.relations == B.relations
    assert isinstance(A, Structure)


def test_random_structure_density_extremes():
    empty = random_structure(GenConfig(density=0.0, seed=1))
    assert all(not tups for tups in empty.relations.values())
    full = random_structure(GenConfig(density=1.0, seed=1))
    for name, ar in full.sig.relations.items():
        assert len(full.relations[name]) == len(full.universe) ** ar


def test_random_pair_shares_signature():
    cfg = GenConfig(seed=5)
    A, B = random_pair(cfg, random.Random(5))
    assert A.sig == B.sig


def test_random_pointed_is_kripke():
    P = random_pointed(random.Random(9))
    assert P.point in P.base.universe
    assert all(ar <= 2 for ar in P.base.sig.relations.values())


def test_small_suite_passes():
    report = run_law_suite(GenConfig(seed=0, iterations=6))
    assert report.passed, report.first_failure
    assert report.checks_run == 18
    assert report.lines()[-1] == "all passed"


def test_zero_iterations_trivially_pass():
    report = run_law_suite(GenConfig(seed=0, iterations=0))
    assert report.passed and report.checks_run == 0


def test_report_deterministic_for_seed():
    a = run_law_suite(GenConfig(seed=42, iterations=4)).to_json()
    b = run_law_suite(GenConfig(seed=42, iterations=4)).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_k1_everywhere_passes():
    report = run_law_suite(GenConfig(seed=1, iterations=4, ks=(1,)))
    assert report.passed


def _tables(A, B, k, seed=0):
    rng = random.Random(seed)
    f = {s: rng.choice(B.universe) for s in ef_plays(A, k)}
    g = {s: rng.choice(A.universe) for s in ef_plays(B, k)}
    return f, g


def test_injected_counit_fault_is_caught():
    A = B = zoo.lin(2)
    f, g = _tables(A, B, 2)
    ident = {a: a for a in A.universe}

    def bad_counit(s):
        return s[0]

    law = ef_law_failure(replace(EF, counit=bad_counit), A, B, 2, f, g, ident)
    assert law in ("counit-coextension-identity", "counit-after-coextension")


def test_injected_coextension_fault_is_caught():
    A = B = zoo.lin(2)
    f, g = _tables(A, B, 2)
    ident = {a: a for a in A.universe}

    def bad_coextend(fn, s):
        return tuple(reversed(coextend_play(fn, s)))

    law = ef_law_failure(replace(EF, coextend=bad_coextend), A, B, 2, f, g, ident)
    assert law is not None


def test_pebble_law_fault_injection():
    A = B = zoo.lin(2)
    rng = random.Random(0)
    from gamecomonads.pebble import pebble_plays
    f = {s: rng.choice(B.universe) for s in pebble_plays(A, 2, 2)}
    g = {s: rng.choice(A.universe) for s in pebble_plays(B, 2, 2)}

    def bad_coextend(fn, s):
        out = []
        for i in range(1, len(s) + 1):
            out.append((1, fn(s[:i])))  # forgets the pebble indices
        return tuple(out)

    assert pebble_law_failure(PEBBLE, A, 2, 2, f, g) is None
    assert pebble_law_failure(replace(PEBBLE, coextend=bad_coextend), A, 2, 2, f, g) == \
        "counit-coextension-identity"


def test_modal_law_fault_injection():
    P = zoo.kripke_two_cycle()
    rng = random.Random(0)
    from gamecomonads.modal import modal_plays
    f = {s: rng.choice(P.base.universe) for s in modal_plays(P, 2)}
    g = {w: rng.choice(P.base.universe) for w in P.base.universe}
    assert modal_law_failure(MODAL, P, 2, f, g) is None

    def bad_counit(s):
        return s[0]

    assert modal_law_failure(replace(MODAL, counit=bad_counit), P, 2, f, g) is not None


def test_failure_report_contains_shrunken_instance(monkeypatch):
    # force the ef check to fail by sabotaging the counit the suite reads
    monkeypatch.setitem(COMONADS, "ef", replace(EF, counit=lambda s: s[0]))
    report = run_law_suite(GenConfig(seed=0, iterations=2))
    assert not report.passed
    failure = report.first_failure
    assert failure["law"].startswith("counit")
    assert failure["structure"]["universe"]  # shrunken instance serialized
    assert any("counterexample" in line for line in report.lines())


def test_pointed_failure_report_keeps_the_point(monkeypatch):
    # the modal check shrinks a pointed structure: its point is never dropped
    monkeypatch.setitem(COMONADS, "modal", replace(MODAL, counit=lambda s: s[0]))
    report = run_law_suite(GenConfig(seed=0, iterations=2))
    assert not report.passed
    failure = report.first_failure
    assert failure["comonad"] == "modal" and failure["law"].startswith("counit")
    structure = failure["structure"]
    assert structure["point"] in structure["universe"]
    assert any(failure["law"] in line for line in report.lines())


def _forget_pebbles(fn, s):
    return tuple((1, fn(s[:i])) for i in range(1, len(s) + 1))


# The reports of the suite at seed 0, two iterations, under one fault each.
PINNED_REPORTS = {
    "ef counit": (EF, {"counit": lambda s: s[0]}, 4, {
        "comonad": "ef", "law": "counit-after-coextension", "iteration": 1, "k": 2,
        "structure": {"signature": {"R": 1}, "universe": ["x0"], "relations": {"R": []}}}),
    "pebble coextension": (PEBBLE, {"coextend": _forget_pebbles}, 5, {
        "comonad": "pebble", "law": "counit-coextension-identity", "iteration": 1, "k": 2,
        "structure": {"signature": {"R": 2, "S": 1}, "universe": ["x2"],
                      "relations": {"R": [], "S": []}}}),
    "modal counit": (MODAL, {"counit": lambda s: s[0]}, 3, {
        "comonad": "modal", "law": "counit-coextension-identity", "iteration": 0, "k": 1,
        "structure": {"signature": {"p0": 1, "p1": 1, "t0": 2, "t1": 2},
                      "universe": ["w2", "w3"], "point": "w2",
                      "relations": {"p0": [], "p1": [], "t0": [["w2", "w3"]], "t1": []}}}),
}


@pytest.mark.parametrize("fault", sorted(PINNED_REPORTS))
def test_failure_reports_are_pinned(monkeypatch, fault):
    record, change, checks, failure = PINNED_REPORTS[fault]
    monkeypatch.setitem(COMONADS, failure["comonad"], replace(record, **change))
    report = run_law_suite(GenConfig(seed=0, iterations=2)).to_json()
    assert report == {"passed": False, "iterations": 2, "checks_run": checks,
                      "first_failure": failure}
