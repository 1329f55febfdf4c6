import json
import os
import subprocess
import sys
import time

import pytest

from gamecomonads import coalgebra, decomposition, equiv, modal, zoo
from gamecomonads.cli import build_parser, main
from gamecomonads.modal import kripke_view
from gamecomonads.structures import structure_from_dict, structure_to_dict


def write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data), encoding="utf-8")
    return str(p)


def plain(tmp_path, name, A):
    return write(tmp_path, name, structure_to_dict(A))


@pytest.fixture
def lin2(tmp_path):
    return plain(tmp_path, "lin2.json", zoo.lin(2))


@pytest.fixture
def lin3(tmp_path):
    return plain(tmp_path, "lin3.json", zoo.lin(3))


def out_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_check_identical_exit_zero(tmp_path, capsys, lin2):
    assert main(["check", "--game", "ef", "--tier", "2", "-k", "2", lin2, lin2]) == 0
    v = out_json(capsys)
    assert v["equiv"] is True and v["k"] == 2


def test_check_lin23_tier2_not_equivalent(tmp_path, capsys, lin2, lin3):
    assert main(["check", "--game", "ef", "--tier", "2", "-k", "2", lin2, lin3]) == 1
    assert out_json(capsys)["equiv"] is False


def test_check_all_games_and_tiers_run(tmp_path, capsys, lin2):
    for game in ("ef", "pebble"):
        for tier in ("1", "2", "3"):
            assert main(["check", "--game", game, "--tier", tier, "-k", "2",
                         lin2, lin2]) == 0
    P = plain(tmp_path, "pk.json", zoo.kripke_two_cycle())
    for tier in ("1", "2", "3"):
        assert main(["check", "--game", "modal", "--tier", tier, "-k", "2", P, P]) == 0


def test_check_ef_tier1_past_the_old_table_cap(tmp_path, capsys):
    # a play table would hold 960,799 entries here; the positions certificate
    # is re-verified and printed
    p = plain(tmp_path, "lin7.json", zoo.lin(7))
    assert main(["check", "--game", "ef", "--tier", "1", "-k", "7", p, p]) == 0
    verdict = out_json(capsys)
    assert verdict["certificate"]["forward"]["shape"] == "positions"
    assert _verifies(verdict, zoo.lin(7), zoo.lin(7))


@pytest.mark.parametrize("game", tuple(equiv.SOLVERS))
def test_tier1_skips_the_backward_game_once_the_forward_one_is_lost(monkeypatch, game):
    calls = []
    solver = equiv.SOLVERS[game]

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return solver(*args, **kwargs)

    monkeypatch.setitem(equiv.SOLVERS, game, counting)
    if game == "modal":
        A, B = zoo.kripke_chain(2), zoo.kripke_chain(1)
    else:
        A, B = zoo.clique(3), zoo.edge2()
    verdict = equiv.decide(game, 1, A, B, 3)
    assert (verdict["equiv"], verdict["certificate"]) == (False, None)
    assert calls == [(A, B)]


def test_check_writes_certificate(tmp_path, capsys, lin2):
    cert_path = tmp_path / "cert.json"
    assert main(["check", "--game", "ef", "--tier", "1", "-k", "2",
                 lin2, lin2, "--cert", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    assert cert["forward"]["shape"] == "positions" and cert["forward"]["positions"]


def test_check_modal_requires_point(tmp_path, capsys, lin2):
    assert main(["check", "--game", "modal", "--tier", "1", "-k", "1",
                 lin2, lin2]) == 2


def test_check_modal_rejects_high_arity(tmp_path, capsys):
    data = {"signature": {"T": 3}, "universe": ["a"],
            "relations": {"T": [["a", "a", "a"]]}, "point": "a"}
    p = write(tmp_path, "t3.json", data)
    assert main(["check", "--game", "modal", "--tier", "1", "-k", "1", p, p]) == 2


def test_check_signature_mismatch_is_usage_error(tmp_path, capsys, lin2):
    other = write(tmp_path, "other.json",
                  {"signature": {"S": 2}, "universe": ["a"], "relations": {}})
    assert main(["check", "--game", "ef", "--tier", "1", "-k", "1",
                 lin2, other]) == 2


def test_check_rejects_k0(tmp_path, capsys, lin2):
    assert main(["check", "--game", "ef", "--tier", "1", "-k", "0",
                 lin2, lin2]) == 2


def test_check_rejects_bad_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{nope", encoding="utf-8")
    assert main(["check", "--game", "ef", "--tier", "1", "-k", "1",
                 str(p), str(p)]) == 2


def test_check_input_directory_exits_2(tmp_path, capsys, lin2):
    assert main(["check", "--game", "ef", "--tier", "1", "-k", "2", str(tmp_path), lin2]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and str(tmp_path) in out.err


@pytest.mark.parametrize("argv", [
    ["check", "--game", "ef", "--tier", "2", "-k", "2", "LIN2", "LIN2", "--cert", "OUT"],
    ["param", "--kind", "tree-width", "LIN2", "--witness", "OUT"],
    ["coalgebra", "--comonad", "ef", "-k", "2", "LIN2", "--out", "OUT"],
    ["coalgebra", "--comonad", "ef", "-k", "2", "LIN2", "DIR"],
])
def test_unwritable_or_unreadable_path_exits_2(tmp_path, capsys, lin2, argv):
    missing = str(tmp_path / "no-such-dir" / "out.json")
    argv = [{"LIN2": lin2, "OUT": missing, "DIR": str(tmp_path)}.get(a, a) for a in argv]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")


def test_check_rejects_unknown_field(tmp_path, capsys, lin2):
    p = write(tmp_path, "extra.json",
              {"signature": {"R": 2}, "universe": ["a"], "relations": {},
               "colour": 1})
    assert main(["check", "--game", "ef", "--tier", "1", "-k", "1", lin2, str(p)]) == 2


@pytest.mark.parametrize("change, message", [
    ({"relations": {"R": [["a", ["b"]]]}}, "not an id"),
    ({"relations": {"R": 5}}, "relations must be"),
    ({"signature": []}, "signature must be"),
    ({"relations": [["a", "b"]]}, "relations must be"),
    ({"universe": "ab"}, "universe must be"),
    ({"relations": {"R": ["ab"]}}, "relations must be"),
    ({"signature": {"R": True}, "relations": {"R": [["a"]]}}, "signature must be"),
])
def test_malformed_structure_file_exits_2(tmp_path, capsys, lin2, change, message):
    """A structure file of the wrong JSON shape is an input error, exit 2
    with a message, whether it used to end in a traceback (exit 1) or be
    read as something else."""
    p = write(tmp_path, "bad.json",
              {"signature": {"R": 2}, "universe": ["a", "b"], "relations": {}, **change})
    assert main(["check", "--game", "ef", "--tier", "1", "-k", "1", lin2, p]) == 2
    err = capsys.readouterr()
    assert err.out == "" and message in err.err and "bad.json" in err.err


def test_param_tree_width_k3(tmp_path, capsys):
    p = plain(tmp_path, "k3.json", zoo.clique(3))
    assert main(["param", "--kind", "tree-width", p]) == 0
    v = out_json(capsys)
    assert v["value"] == 2
    assert v["witness"]["kind"] == "tree-decomposition"


def test_param_tree_depth_k3(tmp_path, capsys):
    p = plain(tmp_path, "k3.json", zoo.clique(3))
    assert main(["param", "--kind", "tree-depth", p]) == 0
    v = out_json(capsys)
    assert v["value"] == 3
    assert v["witness"]["height"] == 3


def test_param_modal_depth_chain(tmp_path, capsys):
    p = plain(tmp_path, "chain.json", zoo.kripke_chain(2))
    assert main(["param", "--kind", "modal-depth", p]) == 0
    v = out_json(capsys)
    assert v["value"] == 2 and v["coalgebra_number"] == 2
    assert v["witness"]["alpha"]["w2"] == ["w0", "t", "w1", "t", "w2"]


def test_param_modal_depth_none(tmp_path, capsys):
    p = plain(tmp_path, "loop.json", zoo.kripke_loop())
    assert main(["param", "--kind", "modal-depth", p]) == 0
    v = out_json(capsys)
    assert v["value"] is None and v["witness"] is None


def test_param_writes_witness_file(tmp_path, capsys):
    p = plain(tmp_path, "pathy.json", zoo.path(3))
    w = tmp_path / "witness.json"
    assert main(["param", "--kind", "tree-width", p, "--witness", str(w)]) == 0
    assert json.loads(w.read_text())["kind"] == "tree-decomposition"


def test_param_bound_exceeded(tmp_path, capsys):
    big = zoo.validate_structure({"R": 1}, [f"v{i}" for i in range(21)], {"R": []})
    p = plain(tmp_path, "big.json", big)
    assert main(["param", "--kind", "tree-depth", p]) == 2


def test_coalgebra_construct_edge(tmp_path, capsys):
    p = plain(tmp_path, "edge.json", zoo.edge())
    assert main(["coalgebra", "--comonad", "ef", "-k", "2", p]) == 0
    v = out_json(capsys)
    assert v["coalgebra"] == {"a": ["a"], "b": ["a", "b"]}


def test_coalgebra_construct_none_below_tree_depth(tmp_path, capsys):
    p = plain(tmp_path, "edge.json", zoo.edge())
    assert main(["coalgebra", "--comonad", "ef", "-k", "1", p]) == 1
    assert out_json(capsys)["coalgebra"] is None


def test_coalgebra_emitted_reverifies(tmp_path, capsys):
    p = plain(tmp_path, "edge.json", zoo.edge())
    out = tmp_path / "alpha.json"
    assert main(["coalgebra", "--comonad", "ef", "-k", "2", p, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["coalgebra", "--comonad", "ef", "-k", "2", p, str(out)]) == 0
    v = out_json(capsys)
    assert v["valid"] is True and v["violation"] is None


def test_coalgebra_verify_reports_violation(tmp_path, capsys):
    p = plain(tmp_path, "edge.json", zoo.edge())
    alpha = write(tmp_path, "alpha.json", {"alpha": {"a": ["a"], "b": ["b"]}})
    assert main(["coalgebra", "--comonad", "ef", "-k", "2", p, alpha]) == 1
    v = out_json(capsys)
    assert v["valid"] is False and "comparable" in v["violation"]


def test_coalgebra_malformed_alpha(tmp_path, capsys):
    p = plain(tmp_path, "edge.json", zoo.edge())
    alpha = tmp_path / "alpha.json"
    alpha.write_text("[1,2,3]", encoding="utf-8")
    assert main(["coalgebra", "--comonad", "ef", "-k", "2", p, str(alpha)]) == 2


@pytest.mark.parametrize("comonad,alpha", [
    ("ef", {"a": "a", "b": "ab"}),
    ("pebble", {"a": ["1a"], "b": ["1a", "2b"]}),
    ("modal", {"a": "a", "b": "atb"}),
])
def test_coalgebra_rejects_a_string_as_a_play(tmp_path, capsys, comonad, alpha):
    # each string spells a valid play letter by letter; a play must be a list
    p = plain(tmp_path, "edge.json", zoo.kripke(["a", "b"], "a", {"t": [("a", "b")]}))
    alpha = write(tmp_path, "alpha.json", {"alpha": alpha})
    assert main(["coalgebra", "--comonad", comonad, "-k", "2", p, alpha]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "malformed coalgebra" in err


def test_coalgebra_pebble_and_modal(tmp_path, capsys):
    p = plain(tmp_path, "k3.json", zoo.clique(3))
    assert main(["coalgebra", "--comonad", "pebble", "-k", "3", p]) == 0
    assert main(["coalgebra", "--comonad", "pebble", "-k", "2", p]) == 1
    q = plain(tmp_path, "chain.json", zoo.kripke_chain(1))
    assert main(["coalgebra", "--comonad", "modal", "-k", "1", q]) == 0


def test_selftest_small(capsys):
    assert main(["selftest", "--seed", "0", "--iters", "3"]) == 0
    out = capsys.readouterr().out
    assert "all passed" in out


def test_selftest_deterministic_bytes(capsys):
    main(["selftest", "--seed", "7", "--iters", "2"])
    first = capsys.readouterr().out
    main(["selftest", "--seed", "7", "--iters", "2"])
    second = capsys.readouterr().out
    assert first == second


def test_selftest_zero_iters(capsys):
    assert main(["selftest", "--iters", "0"]) == 0


def test_rejects_duplicate_json_keys(tmp_path, capsys):
    p = tmp_path / "dup.json"
    p.write_text('{"signature": {"R": 2, "R": 1}, "universe": ["a"], "relations": {}}',
                 encoding="utf-8")
    assert main(["check", "--game", "ef", "--tier", "1", "-k", "1",
                 str(p), str(p)]) == 2
    assert "duplicate key 'R'" in capsys.readouterr().err


def test_rejects_duplicate_top_level_json_keys(tmp_path, capsys):
    # a repeated field is not a relation name
    p = tmp_path / "dup.json"
    p.write_text('{"signature": {"R": 2}, "universe": ["a"], "relations": {},'
                 ' "point": "a", "point": "a"}', encoding="utf-8")
    assert main(["check", "--game", "modal", "--tier", "1", "-k", "1",
                 str(p), str(p)]) == 2
    err = capsys.readouterr().err
    assert "duplicate key 'point'" in err and "relation" not in err


def _fails(real):
    """A verifier that rejects everything."""
    return lambda *args: (False, "tampered")


def _uncertified(real):
    """A solver that wins without a certificate."""
    return lambda *args, **kwargs: (True, None)


def _certifies_once(real):
    """A solver that certifies only the first game it plays."""
    played = []

    def solver(*args, **kwargs):
        won, cert = real(*args, **kwargs)
        played.append(cert)
        return won, cert if len(played) == 1 else None
    return solver


# target: (module or table, name, stub maker, text the error names)
@pytest.mark.parametrize("target, argv", [
    ((equiv, "verify_certificate", _fails, "tampered"),
     ["check", "--game", "pebble", "--tier", "2", "-k", "2"]),
    ((equiv, "verify_certificate", _fails, "tampered"),
     ["check", "--game", "ef", "--tier", "1", "-k", "1"]),
    ((decomposition, "verify_tree_decomposition", _fails, "tampered"),
     ["param", "--kind", "tree-width"]),
    ((decomposition, "verify_forest_cover", _fails, "tampered"),
     ["param", "--kind", "tree-depth"]),
    ((coalgebra, "verify_coalgebra", _fails, "tampered"),
     ["coalgebra", "--comonad", "ef", "-k", "2"]),
    ((equiv.SOLVERS, "ef", _uncertified, "without its certificate"),
     ["check", "--game", "ef", "--tier", "2", "-k", "2"]),
    ((equiv.SOLVERS, "pebble", _uncertified, "without its forward certificate"),
     ["check", "--game", "pebble", "--tier", "1", "-k", "2"]),
    ((equiv.SOLVERS, "ef", _certifies_once, "without its backward certificate"),
     ["check", "--game", "ef", "--tier", "1", "-k", "2"]),
])
def test_failed_self_check_exits_2_and_prints_nothing(monkeypatch, capsys, lin2, target, argv):
    # a failed re-verification is a fault of the program, and exit 1 would
    # read as "not equivalent"; so is a positive verdict with a part of its
    # certificate missing
    owner, name, stub, reason = target
    table = owner if isinstance(owner, dict) else vars(owner)
    monkeypatch.setitem(table, name, stub(table[name]))
    files = [lin2, lin2] if argv[0] == "check" else [lin2]
    assert main(argv + files) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "self-check failed" in err and reason in err, err


def test_usage_error_exit_code():
    assert main(["check", "--game", "ef"]) == 2
    assert main([]) == 2


def test_parser_is_built_once_and_reused(capsys, lin2):
    assert build_parser() is build_parser()
    assert main(["check", "--game", "ef"]) == 2
    first = capsys.readouterr()
    assert main(["check", "--game", "ef"]) == 2
    assert capsys.readouterr() == first
    assert main(["check", "--game", "ef", "--tier", "2", "-k", "2", lin2, lin2]) == 0


def test_check_pebble_tier1_past_the_positions_cap(tmp_path, capsys):
    # k=4 on lin(15) into lin(14) would build ~1.5 million positions
    a = plain(tmp_path, "lin15.json", zoo.lin(15))
    b = plain(tmp_path, "lin14.json", zoo.lin(14))
    start = time.perf_counter()
    assert main(["check", "--game", "pebble", "--tier", "1", "-k", "4", a, b]) == 2
    assert time.perf_counter() - start < 30
    out = capsys.readouterr()
    assert out.out == ""
    assert "positions" in out.err and "cap is 300000" in out.err


def test_check_does_not_import_the_law_suite(lin2):
    code = ("import sys\n"
            "from gamecomonads.cli import main\n"
            f"assert main(['check', '--game', 'pebble', '--tier', '1', '-k', '2', {lin2!r}, {lin2!r}]) == 0\n"
            "assert 'gamecomonads.lawcheck' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(equiv.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _verifies(verdict, A, B):
    cert = verdict["certificate"]
    sides = ([(cert["forward"], A, B), (cert["backward"], B, A)] if verdict["tier"] == 1
             else [(cert, A, B)])
    return all(equiv.verify_certificate(c, src, dst) == (True, None) for c, src, dst in sides)


def test_check_deep_k_on_one_element(tmp_path, capsys):
    # ef caps rounds left at the fresh elements (one here), the modal sweep
    # stops once a round drops no pair (later rounds change nothing), pebble
    # tier 1 has two positions, and ef and pebble tiers 2 and 3 refine tuple
    # types in a loop that stops once a round splits no class; certificates
    # have one entry per pair set, base or pair of worlds
    data = {"signature": {"R": 2, "P": 1}, "universe": ["a"],
            "relations": {"R": [["a", "a"]], "P": [["a"]]}, "point": "a"}
    p = write(tmp_path, "one.json", data)
    P = structure_from_dict(data)
    for game in ("ef", "pebble", "modal"):
        A = P if game == "modal" else P.base
        for tier in (1, 2, 3):
            assert main(["check", "--game", game, "--tier", str(tier), "-k", "1000", p, p]) == 0
            out = capsys.readouterr().out
            verdict = json.loads(out)
            assert verdict["equiv"] is True and _verifies(verdict, A, A), (game, tier)
            assert len(out) < 1024, (game, tier, len(out))


def test_check_at_huge_k_exits_as_at_small_k(tmp_path):
    # on two elements more rounds than a few change no verdict: ef caps its
    # rounds at the fresh elements, a pebble base holds at most two pairs, and
    # refinement and the modal sweep stop once a round changes nothing; each
    # solver must stop there too, not count up to k
    ef = plain(tmp_path, "edge.json", zoo.edge()), plain(tmp_path, "k2.json", zoo.edge2())
    modal = (plain(tmp_path, "cycle.json", zoo.kripke_two_cycle()),
             plain(tmp_path, "chain.json", zoo.kripke_chain(1)))
    calls = [[game, str(tier), a, b]
             for game, (A, B) in (("ef", ef), ("pebble", ef), ("modal", modal))
             for tier in (1, 2, 3) for a, b in ((A, A), (A, B))]
    code = ("import io, json, sys, time\n"
            "from contextlib import redirect_stdout\n"
            "from gamecomonads.cli import main\n"
            "calls, codes, seconds = json.loads(sys.argv[1]), {}, {}\n"
            "for k in ('3', '1000000000000'):\n"
            "    start = time.perf_counter()\n"
            "    with redirect_stdout(io.StringIO()):\n"
            "        codes[k] = [main(['check', '--game', g, '--tier', t, '-k', k, a, b])\n"
            "                    for g, t, a, b in calls]\n"
            "    seconds[k] = time.perf_counter() - start\n"
            "print(json.dumps([codes, seconds]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(equiv.__file__)))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(calls)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, seconds = json.loads(proc.stdout)
    assert codes["1000000000000"] == codes["3"]
    assert set(codes["3"]) == {0, 1}
    assert seconds["1000000000000"] < 20


def test_check_modal_tier1_certificate_on_a_complete_label(tmp_path, capsys):
    # the unfolding has 6^7 plays, more than a play table may hold; the
    # certificate over world pairs stays small
    worlds = [f"w{i}" for i in range(6)]
    data = {"signature": {"t": 2}, "universe": worlds,
            "relations": {"t": [[u, v] for u in worlds for v in worlds]}, "point": "w0"}
    p = write(tmp_path, "complete.json", data)
    assert main(["check", "--game", "modal", "--tier", "1", "-k", "7", p, p]) == 0
    verdict = out_json(capsys)
    P = structure_from_dict(data)
    assert verdict["certificate"] is not None and _verifies(verdict, P, P)


def test_check_modal_builds_each_kripke_view_once(tmp_path, capsys, monkeypatch):
    builds = []

    def counting(A):
        builds.append(A)
        return kripke_view(A)

    monkeypatch.setattr(modal, "kripke_view", counting)
    P = plain(tmp_path, "pk.json", zoo.kripke_two_cycle())
    for tier in ("1", "2", "3"):
        builds.clear()
        assert main(["check", "--game", "modal", "--tier", tier, "-k", "3", P, P]) == 0
        assert len(builds) <= 2, (tier, len(builds))


def test_stdout_digest_script_prints_one_line_per_call():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    run = dict(capture_output=True, text=True, timeout=120, cwd=root)
    count = ("import sys; sys.path.insert(0, 'bench'); import workloads; "
             "print(len(workloads.build('width-params', 1).calls))")
    proc = subprocess.run([sys.executable, "-c", count], **run)
    assert proc.returncode == 0, proc.stderr
    calls = int(proc.stdout)
    proc = subprocess.run([sys.executable, os.path.join("scripts", "stdout_digest.py"),
                           "width-params", "1"], **run)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split(" ") for line in proc.stdout.splitlines()]
    assert calls > 0 and len(lines) == calls
    assert all(len(cols) == 5 for cols in lines)
    assert [cols[0] for cols in lines] == [str(i) for i in range(calls)]
    assert {cols[1] for cols in lines} <= {"0", "1"}


def test_bench_script_times_phases_and_counts_work():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, os.path.join("scripts", "bench.py"), "rank-games",
                           "pebble-games", "width-params", "--passes", "1"],
                          capture_output=True, text=True, timeout=300, cwd=root)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["cpus"] >= 1 and out["python"] and list(out["workloads"]) == [
        "rank-games", "pebble-games", "width-params"]
    for name, w in out["workloads"].items():
        assert w["failed"] == 0 and w["calls"] > 0
        least = w["least_s"]
        phases = ["load", "solve", "certificate", "re-verify", "json_out", "other"]
        if name == "width-params":  # builds no game certificate
            assert least["certificate"] == 0
            phases.remove("certificate")
        parts = [least[p] for p in phases]
        assert all(t > 0 for t in parts) and abs(sum(parts) - least["total"]) < 0.01, least
        assert abs(least["parse"] + least["validate"] + least["kripke_view"]
                   - least["load"]) < 0.001, least
        assert abs(sum(w["share"].values()) - 1) < 0.01
        counts = w["counters"]
        assert (counts["flood_fills"] > 0) == (name == "width-params"), counts
        if name == "width-params":
            assert not any(n for c, n in counts.items() if c != "flood_fills"), counts
            continue
        assert min(counts["certificate_entries"], counts["after_positions"],
                   counts["one_pair_checks"], counts["answers_by_colour_calls"],
                   counts["refinement_rounds"]) > 0, (name, counts)
        assert (counts["pebble_fixpoint_bases"] > 0) == (name == "pebble-games"), counts
        assert (counts["ef_game_pair_sets"] > 0) == (name == "rank-games"), counts
