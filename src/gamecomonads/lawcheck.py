"""Randomized law suite: comonad equations checked on generated structures.

Every check is deterministic for a fixed seed.  The comonad equations are
theorems, so any failure is an implementation fault; on failure the suite
shrinks the instance (drop tuples, then elements, then lower the resource
index) and reports the smallest still-failing counterexample.

The per-comonad check functions take the comonad operations as keyword
arguments so tests can inject faulty ones and watch the right law fail.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

from . import ef as ef_mod
from . import modal as modal_mod
from . import pebble as pebble_mod
from .structures import (PointedStructure, Structure, find_homomorphism,
                         is_homomorphism, validate_structure)


@dataclass
class GenConfig:
    """Generator bounds for the law suite; defaults match the acceptance run."""

    max_universe_size: int = 4
    max_arity: int = 3
    density: float = 0.3
    seed: int = 0
    iterations: int = 200
    ks: tuple[int, ...] = (1, 2, 3)
    pebble_play_length: int = 3

    def __post_init__(self):
        if self.max_universe_size < 1:
            raise ValueError("max_universe_size must be >= 1")
        if self.max_arity < 1:
            raise ValueError("max_arity must be >= 1")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError("density must be in [0, 1]")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if not self.ks or any(k < 1 for k in self.ks):
            raise ValueError("ks must be non-empty with every k >= 1")
        if ef_mod.ef_universe_size(self.max_universe_size, max(self.ks)) > ef_mod.DEFAULT_CAP:
            raise ValueError("configuration exceeds the materialization cap")


def _rng(cfg: GenConfig, iteration: int) -> random.Random:
    return random.Random(f"{cfg.seed}:{iteration}")


def random_structure(cfg: GenConfig, rng: Optional[random.Random] = None) -> Structure:
    rng = rng or _rng(cfg, 0)
    return random_structure_with_signature(cfg, rng, random_signature(cfg, rng))


def random_signature(cfg: GenConfig, rng: random.Random) -> dict[str, int]:
    sig = {"R": rng.randint(1, cfg.max_arity)}
    if rng.random() < 0.5:
        sig["S"] = rng.randint(1, min(2, cfg.max_arity))
    return sig


def random_structure_with_signature(cfg: GenConfig, rng: random.Random,
                                    sig: dict[str, int],
                                    max_size: Optional[int] = None) -> Structure:
    size = rng.randint(1, max_size or cfg.max_universe_size)
    universe = [f"x{i}" for i in range(size)]
    relations = {}
    for name, ar in sig.items():
        full = [[]]
        for _ in range(ar):
            full = [t + [x] for t in full for x in universe]
        relations[name] = [t for t in full if rng.random() < cfg.density]
    return validate_structure(sig, universe, relations)


def random_pair(cfg: GenConfig, rng: random.Random,
                max_size: Optional[int] = None) -> tuple[Structure, Structure]:
    """Two structures over one random signature (for game cross-validations)."""
    sig = random_signature(cfg, rng)
    return (random_structure_with_signature(cfg, rng, sig, max_size),
            random_structure_with_signature(cfg, rng, sig, max_size))


def random_pointed(rng: random.Random, max_worlds: int = 4, n_props: int = 2,
                   n_labels: int = 2, density: float = 0.3) -> PointedStructure:
    size = rng.randint(1, max_worlds)
    worlds = [f"w{i}" for i in range(size)]
    sig = {f"p{i}": 1 for i in range(n_props)}
    sig.update({f"t{i}": 2 for i in range(n_labels)})
    relations = {}
    for i in range(n_props):
        relations[f"p{i}"] = [[w] for w in worlds if rng.random() < density]
    for i in range(n_labels):
        relations[f"t{i}"] = [[u, v] for u in worlds for v in worlds
                              if rng.random() < density]
    base = validate_structure(sig, worlds, relations)
    return PointedStructure(base, rng.choice(worlds))


def random_pointed_pair(rng: random.Random, max_worlds: int = 4, n_props: int = 2,
                        n_labels: int = 2, density: float = 0.3
                        ) -> tuple[PointedStructure, PointedStructure]:
    P = random_pointed(rng, max_worlds, n_props, n_labels, density)
    Q = random_pointed(rng, max_worlds, n_props, n_labels, density)
    return P, Q


# ------------------------------------------------------------- law checks

def ef_law_failure(A: Structure, B: Structure, C: Structure, k: int,
                   f_table: dict, g_table: dict, h_values: dict,
                   *, counit: Callable = ef_mod.ef_counit,
                   coextend: Callable = ef_mod.coextend_play,
                   coeq_samples: int = 50, rng: Optional[random.Random] = None
                   ) -> Optional[str]:
    """Check the rank-comonad equations pointwise; return the first failed law."""
    plays_a = ef_mod.ef_plays(A, k)
    f = f_table.__getitem__
    g = g_table.__getitem__
    for s in plays_a:
        if coextend(counit, s) != s:
            return "counit-coextension-identity"
    for s in plays_a:
        if counit(coextend(f, s)) != f(s):
            return "counit-after-coextension"
    for s in plays_a:
        lhs = coextend(lambda t: g(coextend(f, t)), s)
        rhs = coextend(g, coextend(f, s))
        if lhs != rhs:
            return "coextension-composition"
    for s in plays_a:
        for a in A.universe:
            if len(s) < k:
                longer = coextend(f, s + (a,))
                if longer[:-1] != coextend(f, s):
                    return "covering-preservation"
    # parallel-pair equation on plays of plays, sampled
    rng = rng or random.Random(0)
    for _ in range(coeq_samples):
        length = rng.randint(1, k)
        S = tuple(rng.choice(plays_a) for _ in range(length))
        lifted = tuple(counit(x) for x in S)       # elementwise counit
        if counit(lifted) != counit(S[-1]):
            return "coequaliser"
    # a homomorphism's coextension is again a homomorphism
    hf = {s: h_values[counit(s)] for s in plays_a}
    mat_a = ef_mod.ef_materialize(A, k)
    mat_b = ef_mod.ef_materialize(B, k)
    mapped = {ef_mod.play_id(s): ef_mod.play_id(coextend(hf.__getitem__, s))
              for s in plays_a}
    if not is_homomorphism(mapped, mat_a, mat_b):
        return "coextension-homomorphism"
    return None


def pebble_law_failure(A: Structure, B: Structure, k: int, n: int,
                       f_table: dict, g_table: dict,
                       *, coextend: Callable = pebble_mod.pebble_coextension_on_play,
                       counit: Callable = lambda s: s[-1][1],
                       coeq_samples: int = 25, rng: Optional[random.Random] = None
                       ) -> Optional[str]:
    plays_a = pebble_mod.pebble_plays(A, k, n)
    f = f_table.__getitem__
    g = g_table.__getitem__
    for s in plays_a:
        if coextend(counit, s) != s:
            return "counit-coextension-identity"
    for s in plays_a:
        if counit(coextend(f, s)) != f(s):
            return "counit-after-coextension"
    for s in plays_a:
        lhs = coextend(lambda t: g(coextend(f, t)), s)
        rhs = coextend(g, coextend(f, s))
        if lhs != rhs:
            return "coextension-composition"
    for s in plays_a:
        if len(s) < n:
            move = (1, A.universe[0])
            if coextend(f, s + (move,))[:-1] != coextend(f, s):
                return "covering-preservation"
    rng = rng or random.Random(0)
    for _ in range(coeq_samples):
        length = rng.randint(1, n)
        S = tuple((rng.randint(1, k), rng.choice(plays_a)) for _ in range(length))
        lifted = tuple((p, counit(x)) for p, x in S)
        if counit(lifted) != counit(S[-1][1]):
            return "coequaliser"
    return None


def modal_law_failure(P: PointedStructure, k: int, f_table: dict,
                      g_of_world: dict,
                      *, counit: Callable = modal_mod.modal_counit,
                      coextend: Callable = modal_mod.modal_coextend
                      ) -> Optional[str]:
    plays = modal_mod.modal_plays(P, k)
    f = f_table.__getitem__

    def g(s):
        return g_of_world[counit(s)]

    for s in plays:
        if coextend(counit, s) != s:
            return "counit-coextension-identity"
    for s in plays:
        out = coextend(f, s)
        if counit(out) != f(s):
            return "counit-after-coextension"
        if out[:1] != (f(s[:1]),):
            return "point-preservation"
        if len(out) != len(s) or out[1::2] != s[1::2]:
            return "label-preservation"
    for s in plays:
        lhs = coextend(lambda t: g(coextend(f, t)), s)
        rhs = coextend(g, coextend(f, s))
        if lhs != rhs:
            return "coextension-composition"
    for s in plays:
        # coextension preserves each one-step extension
        if len(s) >= 3 and coextend(f, s)[:-2] != coextend(f, s[:-2]):
            return "covering-preservation"
    # parallel-pair equation on paths of the unfolded structure
    unfolded = modal_mod.modal_unfold(P, k)
    for S in modal_mod.modal_plays(unfolded, k):
        inner = [modal_mod.modal_play_of_id(w) for w in S[::2]]
        lifted = list(S)
        lifted[::2] = [counit(x) for x in inner]
        if counit(tuple(lifted)) != counit(inner[-1]):
            return "coequaliser"
    return None


def modal_hom_law_failure(P: PointedStructure, Q: PointedStructure, k: int,
                          h: dict) -> Optional[str]:
    """With a pointed homomorphism h, the lifted strategy's coextension must be
    a homomorphism between the unfoldings."""
    plays = modal_mod.modal_plays(P, k)
    table = {s: h[modal_mod.modal_counit(s)] for s in plays}
    unf_p = modal_mod.modal_unfold(P, k)
    unf_q = modal_mod.modal_unfold(Q, k)
    mapped = {modal_mod.modal_play_id(s):
              modal_mod.modal_play_id(modal_mod.modal_coextend(table.__getitem__, s))
              for s in plays}
    if not is_homomorphism(mapped, unf_p.base, unf_q.base):
        return "coextension-homomorphism"
    if mapped[unf_p.point] != unf_q.point:
        return "point-preservation"
    return None


# ------------------------------------------------------------- the suite

@dataclass
class LawReport:
    passed: bool
    iterations: int
    checks_run: int
    first_failure: Optional[dict] = None

    def lines(self) -> list[str]:
        out = [f"law suite: {self.iterations} iterations, {self.checks_run} checks"]
        if self.passed:
            out.append("all passed")
        else:
            out.append(f"FAILED: {self.first_failure['law']} "
                       f"at iteration {self.first_failure['iteration']}")
            out.append("shrunken counterexample: "
                       + json.dumps(self.first_failure["structure"]))
            out.append(f"k = {self.first_failure['k']}")
        return out

    def to_json(self) -> dict:
        return {"passed": self.passed, "iterations": self.iterations,
                "checks_run": self.checks_run, "first_failure": self.first_failure}


def _run_ef_iteration(cfg: GenConfig, i: int) -> Optional[dict]:
    rng = _rng(cfg, i)
    sig = random_signature(cfg, rng)
    A = random_structure_with_signature(cfg, rng, sig)
    B = random_structure_with_signature(cfg, rng, sig)
    C = random_structure_with_signature(cfg, rng, sig)
    k = cfg.ks[i % len(cfg.ks)]

    def check(A_: Structure, k_: int) -> Optional[str]:
        r = random.Random(f"{cfg.seed}:{i}:tables")
        plays = ef_mod.ef_plays(A_, k_)
        f_table = {s: r.choice(B.universe) for s in plays}
        g_table = {s: r.choice(C.universe) for s in ef_mod.ef_plays(B, k_)}
        h = find_homomorphism(A_, B)
        if h is not None:
            return ef_law_failure(A_, B, C, k_, f_table, g_table, h,
                                  rng=random.Random(f"{cfg.seed}:{i}:coeq"))
        ident = {a: a for a in A_.universe}
        f_self = {s: r.choice(A_.universe) for s in plays}
        g_self = {s: r.choice(C.universe) for s in ef_mod.ef_plays(A_, k_)}
        return ef_law_failure(A_, A_, C, k_, f_self, g_self, ident,
                              rng=random.Random(f"{cfg.seed}:{i}:coeq"))

    law = check(A, k)
    if law is None:
        return None
    A_small, k_small = _shrink(A, k, lambda s, kk: check(s, kk) == law)
    return {"comonad": "ef", "law": law, "iteration": i, "k": k_small,
            "structure": _structure_json(A_small)}


def _run_pebble_iteration(cfg: GenConfig, i: int) -> Optional[dict]:
    rng = _rng(cfg, 10_000 + i)
    A = random_structure(cfg, rng)
    B = random_structure(cfg, rng)
    k = cfg.ks[i % len(cfg.ks)]
    n = cfg.pebble_play_length

    def check(A_: Structure, k_: int) -> Optional[str]:
        r = random.Random(f"{cfg.seed}:{i}:ptables")
        f_table = {s: r.choice(B.universe) for s in pebble_mod.pebble_plays(A_, k_, n)}
        g_table = {s: r.choice(A_.universe) for s in pebble_mod.pebble_plays(B, k_, n)}
        return pebble_law_failure(A_, B, k_, n, f_table, g_table)

    law = check(A, k)
    if law is None:
        return None
    A_small, k_small = _shrink(A, k, lambda s, kk: check(s, kk) == law)
    return {"comonad": "pebble", "law": law, "iteration": i, "k": k_small,
            "structure": _structure_json(A_small)}


def _run_modal_iteration(cfg: GenConfig, i: int) -> Optional[dict]:
    rng = _rng(cfg, 20_000 + i)
    P = random_pointed(rng, max_worlds=min(cfg.max_universe_size, 4))
    Q = random_pointed(rng, max_worlds=min(cfg.max_universe_size, 4))
    k = cfg.ks[i % len(cfg.ks)]

    def check(P_: PointedStructure, k_: int) -> Optional[str]:
        r = random.Random(f"{cfg.seed}:{i}:mtables")
        plays = modal_mod.modal_plays(P_, k_)
        f_table = {s: r.choice(Q.base.universe) for s in plays}
        g_of_world = {w: r.choice(P_.base.universe) for w in Q.base.universe}
        law = modal_law_failure(P_, k_, f_table, g_of_world)
        if law is not None:
            return law
        h = find_homomorphism(P_.base, Q.base, pre={P_.point: Q.point})
        if h is not None:
            return modal_hom_law_failure(P_, Q, k_, h)
        return modal_hom_law_failure(P_, P_, k_, {w: w for w in P_.base.universe})

    law = check(P, k)
    if law is None:
        return None
    A_small, k_small = _shrink(
        P.base, k, lambda s, kk: check(PointedStructure(s, P.point), kk) == law, keep=P.point)
    return {"comonad": "modal", "law": law, "iteration": i, "k": k_small,
            "structure": _structure_json(PointedStructure(A_small, P.point))}


def _structure_json(A) -> dict:
    from .structures import structure_to_dict
    return structure_to_dict(A)


def _shrink(A: Structure, k: int, still_fails: Callable[[Structure, int], bool],
            keep: Optional[str] = None) -> tuple[Structure, int]:
    """Greedy shrink: drop tuples, then elements other than keep, then lower k."""
    current, cur_k = A, k
    improved = True
    while improved:
        improved = False
        for name in sorted(current.relations):
            for t in sorted(current.relations[name]):
                cand = _drop_tuple(current, name, t)
                if still_fails(cand, cur_k):
                    current = cand
                    improved = True
                    break
            if improved:
                break
        if improved:
            continue
        if len(current.universe) > 1:
            for e in current.universe:
                if e == keep:
                    continue
                cand = _drop_element(current, e)
                if still_fails(cand, cur_k):
                    current = cand
                    improved = True
                    break
        if improved:
            continue
        if cur_k > 1 and still_fails(current, cur_k - 1):
            cur_k -= 1
            improved = True
    return current, cur_k


def _drop_tuple(A: Structure, name: str, t: tuple) -> Structure:
    rels = {n: [list(x) for x in sorted(tups) if not (n == name and x == t)]
            for n, tups in A.relations.items()}
    return validate_structure(dict(A.sig.relations), list(A.universe), rels)


def _drop_element(A: Structure, e: str) -> Structure:
    universe = [x for x in A.universe if x != e]
    rels = {n: [list(t) for t in sorted(tups) if e not in t]
            for n, tups in A.relations.items()}
    return validate_structure(dict(A.sig.relations), universe, rels)


def run_law_suite(cfg: GenConfig) -> LawReport:
    checks = 0
    for i in range(cfg.iterations):
        for runner in (_run_ef_iteration, _run_pebble_iteration, _run_modal_iteration):
            failure = runner(cfg, i)
            checks += 1
            if failure is not None:
                return LawReport(False, cfg.iterations, checks, failure)
    return LawReport(True, cfg.iterations, checks, None)
