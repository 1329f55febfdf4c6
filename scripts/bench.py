#!/usr/bin/env python3
"""Time the phases of every CLI call of the benchmark workloads and count their work.

Usage: python3 scripts/bench.py [WORKLOAD ...] [--seed N] [--passes N]
                                [--src DIR] [--out FILE]

Builds each workload's plan with `bench/workloads.py` (read only), writes
its structure files to a temporary directory and runs every call there
in-process through `gamecomonads.cli.main`, with stdout captured.  With no
WORKLOAD it runs all four.  Functions of the package are wrapped from here,
so the library itself is not changed; each wrapper adds its self time (its
time less that of the wrapped calls inside it) to one phase:

    parse        structures.load_structure_file as the CLI calls it, less
                 what it spends in structure_from_dict
    validate     structures.structure_from_dict (checking and building the
                 structure)
    kripke_view  modal.kripke_view (the Kripke view of a pointed structure,
                 built once per structure)
    solve        equiv.SOLVERS, decomposition.tree_depth / tree_width,
                 coalgebra.modal_parameters / construct_coalgebra
    certificate  strategy.certificate, wherever a module binds it
    re-verify    cli._check_emitted_certificate, the witness verifiers
                 (decomposition.verify_forest_cover / verify_tree_decomposition,
                 coalgebra.verify_coalgebra)
    json_out     json.dumps as the CLI calls it
    other        the rest of the calls' wall time (argument parsing, printing,
                 ...)

"load" is parse + validate + kripke_view, summed per pass.

One untimed pass comes first.  It warms the process up and counts the work,
with these wrapped too:

    certificate_entries      positions in the certificates built
    after_positions          positions the rules' `after` returned (those
                             Duplicator answers from next); null where the
                             rules have no `after`
    one_pair_checks          calls of the rules' `fault` with a pair
    answers_by_colour_calls  calls of `strategy.answers_by_colour`
    pebble_fixpoint_bases    bases in the results of `pebble.pebble_fixpoint`
    ef_game_pair_sets        pair sets in the memo of each tier-1 `ef.EfGame`
    refinement_rounds        colourings kept by refinement: len(history) of
                             each `refine.Types` and of each modal
                             `_refinement` (read from its answer's closure)
    flood_fills              calls of `decomposition._MaskGraph.components`
                             (each splits a vertex mask into its components)

Then --passes timed passes (default 5), with only the phase wrappers, `gc`
collected before each; each phase keeps its least and its median time over
the passes, and so do load and the total ("share" divides the least times
of the phases and other by their sum).  Wall time, in seconds, on whatever
machine it runs.  The result is one JSON object (to --out, else stdout)
with the commit of the checkout that holds the package (null if it is not
a git checkout; "+changes" if its `src` differs from that commit), the
Python version and the CPU count.  It exits 1 if a call exits with 2.
`--src` times the package in another checkout's `src` directory:

    python3 scripts/bench.py pebble-games --src ../parent/src
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import types
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PHASES = ("parse", "validate", "kripke_view", "solve", "certificate", "re-verify", "json_out")
LOAD = ("parse", "validate", "kripke_view")
COUNTERS = ("certificate_entries", "after_positions", "one_pair_checks",
            "answers_by_colour_calls", "pebble_fixpoint_bases", "ef_game_pair_sets",
            "refinement_rounds", "flood_fills")


class Patches:
    """Attributes of modules and classes, and items of dicts, replaced until
    `restore` puts them back."""

    def __init__(self):
        self.undo: list = []

    def wrap(self, owner, name, make) -> None:
        """Replace owner's name (an item of a dict, else an attribute, if
        there) by make(its value)."""
        if isinstance(owner, dict):
            old = owner[name]
            owner[name] = make(old)
            self.undo.append(lambda: owner.__setitem__(name, old))
        elif hasattr(owner, name):
            old, own = getattr(owner, name), not isinstance(owner, type) or name in vars(owner)
            setattr(owner, name, make(old))
            self.undo.append(lambda: setattr(owner, name, old) if own else delattr(owner, name))

    def restore(self) -> None:
        while self.undo:
            self.undo.pop()()


class Timer:
    """Self time per phase: a wrapped call's time less its wrapped callees'."""

    def __init__(self):
        self.spent = dict.fromkeys(PHASES, 0.0)
        self.inner: list[float] = []  # per open wrapped call, the time of its wrapped callees

    def phase(self, name: str):
        def make(fn):
            def timed(*args, **kwargs):
                self.inner.append(0.0)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    took = time.perf_counter() - t0
                    self.spent[name] += took - self.inner.pop()
                    if self.inner:
                        self.inner[-1] += took
            return timed
        return make


def _modules():
    """The package's modules, imported from the first `src` on sys.path."""
    from gamecomonads import (cli, coalgebra, decomposition, ef, equiv, modal, pebble, refine,
                              strategy, structures)
    return types.SimpleNamespace(
        cli=cli, coalgebra=coalgebra, decomposition=decomposition, ef=ef, equiv=equiv,
        modal=modal, pebble=pebble, refine=refine, strategy=strategy, structures=structures)


def time_phases(m, patches: Patches, timer: Timer) -> None:
    ph = timer.phase
    patches.wrap(m.cli, "load_structure_file", ph("parse"))
    patches.wrap(m.structures, "structure_from_dict", ph("validate"))
    patches.wrap(m.modal, "kripke_view", ph("kripke_view"))
    for tag in list(m.equiv.SOLVERS):
        patches.wrap(m.equiv.SOLVERS, tag, ph("solve"))
    for name in ("tree_depth", "tree_width"):
        patches.wrap(m.decomposition, name, ph("solve"))
    for name in ("modal_parameters", "construct_coalgebra"):
        patches.wrap(m.coalgebra, name, ph("solve"))
    for module in (m.strategy, m.ef, m.pebble, m.modal):
        patches.wrap(module, "certificate", ph("certificate"))
    patches.wrap(m.cli, "_check_emitted_certificate", ph("re-verify"))
    for name in ("verify_forest_cover", "verify_tree_decomposition"):
        patches.wrap(m.decomposition, name, ph("re-verify"))
    patches.wrap(m.coalgebra, "verify_coalgebra", ph("re-verify"))
    # the CLI's own json, so that json.dumps elsewhere (play ids) is not counted
    cli_json = types.SimpleNamespace(**vars(json))
    cli_json.dumps = ph("json_out")(json.dumps)
    patches.wrap(m.cli, "json", lambda _: cli_json)


def count_work(m, patches: Patches, counts: dict, games: list) -> None:
    def adding(counter: str, size):
        def make(fn):
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                counts[counter] += size(out, args)
                return out
            return counted
        return make

    for module in (m.strategy, m.ef, m.pebble, m.modal):
        patches.wrap(module, "certificate", adding("certificate_entries",
                                                    lambda cert, _: len(cert["positions"])))
        patches.wrap(module, "answers_by_colour", adding("answers_by_colour_calls",
                                                          lambda *_: 1))
    rules = list(m.equiv.RULES.values())
    if all(hasattr(cls, "after") for cls in rules):
        counts["after_positions"] = 0
        for cls in rules:
            patches.wrap(cls, "after", adding("after_positions", lambda out, _: len(out)))
    for cls in rules:
        patches.wrap(cls, "fault", adding("one_pair_checks",
                                          lambda _, args: len(args) > 2 and args[2] is not None))
    patches.wrap(m.pebble, "pebble_fixpoint", adding("pebble_fixpoint_bases",
                                                     lambda out, _: len(out)))
    # each memo is read after the pass, once its certificate is built
    patches.wrap(m.ef.EfRules, "existential", adding("ef_game_pair_sets",
                                                     lambda out, _: games.append(out[1]) or 0))

    def history(answer) -> int:
        cells = dict(zip(answer.__code__.co_freevars, answer.__closure__ or ()))
        return len(cells["history"].cell_contents) if "history" in cells else 0
    patches.wrap(m.modal, "_refinement", adding("refinement_rounds",
                                                lambda out, _: history(out[1])))
    patches.wrap(m.decomposition._MaskGraph, "components", adding("flood_fills", lambda *_: 1))
    init = m.refine.Types.__init__

    def types_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        counts["refinement_rounds"] += len(getattr(self, "history", ()))
    patches.wrap(m.refine.Types, "__init__", lambda _: types_init)


def run_pass(main, calls, paths) -> tuple[float, int]:
    """Wall time of one pass over the calls, and how many exited with 2."""
    gc.collect()
    total, failed = 0.0, 0
    for call in calls:
        argv = [paths.get(a, a) for a in call["argv"]]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            rc = main(argv)
            total += time.perf_counter() - t0
        failed += rc not in (0, 1)
    return total, failed


def bench(workloads, name: str, seed: int, passes: int) -> dict:
    m = _modules()
    plan = workloads.build(name, seed)
    with tempfile.TemporaryDirectory() as work:
        here = os.getcwd()
        os.chdir(work)
        try:
            paths = {}
            for file, S in plan.files.items():
                paths[file] = f"{file}.json"
                with open(paths[file], "w", encoding="utf-8") as fh:
                    json.dump(S, fh)
            counts = {c: 0 for c in COUNTERS}
            counts["after_positions"] = None
            patches, games = Patches(), []  # games: the tier-1 ef answers, bound to their game
            try:
                count_work(m, patches, counts, games)
                _, failed = run_pass(m.cli.main, plan.calls, paths)
            finally:
                patches.restore()
            counts["ef_game_pair_sets"] = sum(len(answer.__self__.memo) for answer in games)
            del games
            times = {p: [] for p in (*PHASES, "other", "load", "total")}
            for _ in range(passes):
                timer = Timer()
                try:
                    time_phases(m, patches, timer)
                    total, bad = run_pass(m.cli.main, plan.calls, paths)
                finally:
                    patches.restore()
                failed = max(failed, bad)
                for p in PHASES:
                    times[p].append(timer.spent[p])
                times["other"].append(total - sum(timer.spent.values()))
                times["load"].append(sum(timer.spent[p] for p in LOAD))
                times["total"].append(total)
        finally:
            os.chdir(here)
    least = {p: min(v) for p, v in times.items()}
    parts = sum(least[p] for p in (*PHASES, "other"))
    return {"calls": len(plan.calls), "failed": failed,
            "least_s": {p: round(v, 4) for p, v in least.items()},
            "median_s": {p: round(statistics.median(v), 4) for p, v in times.items()},
            "share": {p: round(least[p] / parts, 3) for p in (*PHASES, "other")},
            "counters": counts}


def commit_of(src: str):
    try:
        out = subprocess.run(["git", "-C", src, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", src, "status", "--porcelain", "--", "."],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return out + ("+changes" if dirty else "")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", nargs="*", help="workloads to run (default: all four)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=5, help="timed passes per workload")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the gamecomonads package (default: this checkout's)")
    ap.add_argument("--out", help="write the JSON result here instead of stdout")
    args = ap.parse_args()
    if args.passes < 1:
        ap.error("--passes must be at least 1")

    src = os.path.abspath(args.src)
    sys.path[:0] = [src, os.path.join(ROOT, "bench")]
    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r}; one of {', '.join(workloads.WORKLOADS)}")
    result = {"commit": commit_of(src), "python": platform.python_version(),
              "cpus": os.cpu_count(), "seed": args.seed, "passes": args.passes,
              "workloads": {n: bench(workloads, n, args.seed, args.passes) for n in names}}
    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if any(w["failed"] for w in result["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
