"""Per-module spans for the traced run, recorded from outside the program.

`Tracer.install()` wraps the package's public functions wherever a module
has bound them (`equiv.is_partial_isomorphism` as well as
`structures.is_partial_isomorphism`), and methods on their class.  Each CLI
call is a root span; a wrapped function's span is a child of the innermost
span open when it was called, and its self time is its duration minus its
children's.  Spans are aggregated per root span and name in memory and
written out at the end.  A target name the program no longer defines is
reported as absent.
"""

from __future__ import annotations

import sys
import time

PACKAGE = "gamecomonads"

# (module, qualified name) of every wrapped function
TARGETS = [
    ("structures", "load_structure_file"),
    ("structures", "is_partial_isomorphism"),
    ("structures", "is_partial_homomorphism"),
    ("ef", "ef_game_exists"),
    ("pebble", "pebble_game_exists"),
    ("equiv", "decide"),
    ("equiv", "mutual_existential"),
    ("equiv", "back_and_forth_equiv"),
    ("equiv", "ef_back_and_forth"),
    ("equiv", "pebble_back_and_forth"),
    ("equiv", "bijection_game_equiv"),
    ("equiv", "pebble_bijection_equiv"),
    ("equiv", "verify_certificate"),
    ("matching", "perfect_matching"),
    ("modal", "KripkeView.successors"),
    ("modal", "KripkeView.profile"),
    ("modal", "simulation_approx"),
    ("modal", "simulation_strategy"),
    ("modal", "modal_back_and_forth"),
    ("modal", "graded_bisim_game"),
    ("decomposition", "tree_width"),
    ("decomposition", "tree_depth"),
    ("decomposition", "verify_tree_decomposition"),
    ("decomposition", "verify_forest_cover"),
    ("decomposition", "verify_pebbled_forest_cover"),
    ("coalgebra", "modal_depth"),
    ("coalgebra", "modal_coalgebra_number"),
    ("coalgebra", "modal_coalgebra"),
    ("coalgebra", "construct_coalgebra"),
    ("coalgebra", "verify_coalgebra"),
]

CHECKS = {"structures.is_partial_isomorphism", "structures.is_partial_homomorphism"}
PEBBLE_SOLVERS = {"pebble.pebble_game_exists", "equiv.pebble_back_and_forth",
                  "equiv.pebble_bijection_equiv"}
EQUIV_SOLVERS = ["equiv.decide", "equiv.mutual_existential", "equiv.back_and_forth_equiv",
                 "equiv.ef_back_and_forth", "equiv.pebble_back_and_forth",
                 "equiv.bijection_game_equiv", "equiv.pebble_bijection_equiv"]


class Stat:
    __slots__ = ("calls", "incl", "self", "true", "active")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0   # time of spans not nested in a span of the same name
        self.self = 0.0
        self.true = 0     # calls that returned True (checks only)
        self.active = 0


def _cert_positions(result) -> int:
    exists, cert = result
    if not exists or cert is None:
        return 0
    if "positions" in cert:
        return len(cert["positions"])
    return len({str(e["position"]) for e in cert["strategy"]})


class Tracer:
    def __init__(self):
        self.stats = {f"{m}.{q}": Stat() for m, q in TARGETS}
        self.absent: list[str] = []
        self.stack: list[list[float]] = []
        self.pebble_open = 0
        self.pebble_checks = 0
        self.cert_positions = 0
        self.roots: list[dict] = []
        self.root_self = 0.0
        self.out_bytes = 0

    # ---------------------------------------------------------- install
    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod_name, qual in TARGETS:
            name = f"{mod_name}.{qual}"
            owner = sys.modules.get(f"{PACKAGE}.{mod_name}")
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(original, name)
            if path:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, fn, name: str):
        stat = self.stats[name]
        stack = self.stack
        clock = time.perf_counter
        is_check = name in CHECKS
        is_pebble = name in PEBBLE_SOLVERS
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stat.active += 1
            if is_pebble:
                tracer.pebble_open += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stack[-1][0] += dur
                stat.active -= 1
                stat.calls += 1
                stat.self += dur - frame[0]
                if stat.active == 0:
                    stat.incl += dur
                if is_pebble:
                    tracer.pebble_open -= 1
            if is_check:
                stat.true += result is True
                if tracer.pebble_open:
                    tracer.pebble_checks += 1
            elif is_pebble:
                # counted outside every span's self time
                hook = clock()
                tracer.cert_positions += _cert_positions(result)
                stack[-1][0] += clock() - hook
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------- spans
    def root(self, call_id: int, fn, *args):
        """Run one CLI call as a root span."""
        before = {n: (s.calls, s.incl, s.self) for n, s in self.stats.items()}
        frame = [0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dur = time.perf_counter() - start
            self.stack.pop()
            self.root_self += dur - frame[0]
            children = {}
            for n, s in self.stats.items():
                c, i, f = before[n]
                if s.calls != c:
                    children[n] = [s.calls - c, round(s.incl - i, 6), round(s.self - f, 6)]
            self.roots.append({"call": call_id, "s": round(dur, 6),
                               "self_s": round(dur - frame[0], 6), "children": children})

    # ----------------------------------------------------------- metrics
    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer figures per pass over the workload."""
        st = self.stats

        def incl(*names):
            return sum(st[n].incl for n in names) / passes

        def calls(name):
            return st[name].calls / passes

        iso = st["structures.is_partial_isomorphism"]
        checks = self.pebble_checks
        return {
            "cli.self_s": self.root_self / passes,
            "cli.out_kb": self.out_bytes / 1024 / passes,
            "structures.load_s": incl("structures.load_structure_file"),
            "structures.iso_calls": calls("structures.is_partial_isomorphism"),
            "structures.iso_s": incl("structures.is_partial_isomorphism"),
            "structures.iso_true_ratio": iso.true / iso.calls if iso.calls else 0.0,
            "structures.hom_calls": calls("structures.is_partial_homomorphism"),
            "structures.hom_s": incl("structures.is_partial_homomorphism"),
            "ef.game_s": incl("ef.ef_game_exists"),
            "pebble.game_s": incl("pebble.pebble_game_exists"),
            "pebble.cert_positions": self.cert_positions / passes,
            "pebble.useful_ratio": self.cert_positions / checks if checks else 0.0,
            "equiv.bf_s": incl("equiv.ef_back_and_forth", "equiv.pebble_back_and_forth"),
            "equiv.bijection_s": incl("equiv.bijection_game_equiv", "equiv.pebble_bijection_equiv"),
            "equiv.verify_s": incl("equiv.verify_certificate"),
            "equiv.verify_calls": calls("equiv.verify_certificate"),
            "equiv.decide_self_s": sum(st[n].self for n in EQUIV_SOLVERS) / passes,
            "matching.calls": calls("matching.perfect_matching"),
            "matching.s": st["matching.perfect_matching"].self / passes,
            "modal.successors_calls": calls("modal.KripkeView.successors"),
            "modal.successors_s": incl("modal.KripkeView.successors"),
            "modal.profile_calls": calls("modal.KripkeView.profile"),
            "modal.simulation_s": incl("modal.simulation_approx", "modal.simulation_strategy"),
            "modal.bf_s": incl("modal.modal_back_and_forth"),
            "modal.graded_s": incl("modal.graded_bisim_game"),
            "decomposition.tree_width_s": incl("decomposition.tree_width"),
            "decomposition.tree_depth_s": incl("decomposition.tree_depth"),
            "decomposition.verify_s": incl("decomposition.verify_tree_decomposition",
                                           "decomposition.verify_forest_cover",
                                           "decomposition.verify_pebbled_forest_cover"),
            "coalgebra.modal_depth_s": incl("coalgebra.modal_depth"),
            "coalgebra.construct_s": incl("coalgebra.construct_coalgebra"),
            "coalgebra.verify_s": incl("coalgebra.verify_coalgebra"),
        }

    def dump(self) -> dict:
        return {"absent": self.absent, "roots": self.roots,
                "totals": {n: {"calls": s.calls, "incl_s": s.incl, "self_s": s.self}
                           for n, s in self.stats.items()}}
