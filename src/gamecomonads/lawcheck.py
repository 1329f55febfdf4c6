"""Randomized law suite: comonad equations checked on generated structures.

Every check is deterministic for a fixed seed.  The comonad equations are
theorems, so any failure is an implementation fault; on failure the suite
shrinks the instance (drop tuples, then elements, then lower the resource
index) and reports the smallest still-failing counterexample.

The laws every comonad shares are checked once (`shared_law_failure`), on
the comonad's record (`comonad.Comonad`); each comonad adds its own laws.
The checks take the record as an argument, and the suite reads it from
`coalgebra.COMONADS`, so tests can pass a faulty one (such as
`dataclasses.replace(EF, counit=...)`) and watch the right law fail.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .coalgebra import COMONADS
from .comonad import DEFAULT_CAP, Comonad, play_id, play_structure
from .ef import ef_plays, ef_universe_size
from .modal import modal_plays
from .pebble import pebble_plays
from .structures import (PointedStructure, Structure, find_homomorphism,
                         is_homomorphism, structure_to_dict, validate_structure)


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
        if self.pebble_play_length < 1:
            raise ValueError("pebble_play_length must be >= 1")
        # the ef plays, and the pebble plays over k * n moves
        n, k = self.max_universe_size, max(self.ks)
        if max(ef_universe_size(n, k),
               ef_universe_size(k * n, self.pebble_play_length)) > DEFAULT_CAP:
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

def shared_law_failure(R: Comonad, plays: list, f: Callable, g: Callable) -> Optional[str]:
    """The laws of every comonad, checked on plays (a list closed under
    prefixes) with coKleisli maps f and g (f's targets are g's plays);
    return the first failed law."""
    for s in plays:
        if R.coextend(R.counit, s) != s:
            return "counit-coextension-identity"
    ext = {s: R.coextend(f, s) for s in plays}
    for s in plays:
        if R.counit(ext[s]) != f(s):
            return "counit-after-coextension"
    for s in plays:
        lhs = R.coextend(lambda t: g(R.coextend(f, t)), s)
        if lhs != R.coextend(g, ext[s]):
            return "coextension-composition"
    for s in plays:
        # coextension commutes with dropping the last step
        p = R.before(s)
        if p is not None and ext[s][:len(p)] != ext[p]:
            return "covering-preservation"
    return None


def hom_law_failure(R: Comonad, A, B, plays_a: list, plays_b: list, h: dict) -> Optional[str]:
    """With h a homomorphism from A to B (pointed, for modal), the coextension
    of h after the counit must be a homomorphism between the play structures
    on plays_a and plays_b (a pointed one, for modal)."""
    table = {s: h[R.counit(s)] for s in plays_a}
    mapped = {play_id(s): play_id(R.coextend(table.__getitem__, s)) for s in plays_a}
    SA, SB = play_structure(R, A, plays_a), play_structure(R, B, plays_b)
    pointed = isinstance(SA, PointedStructure)
    if not is_homomorphism(mapped, SA.base if pointed else SA, SB.base if pointed else SB):
        return "coextension-homomorphism"
    if pointed and mapped[SA.point] != SB.point:
        return "point-preservation"
    return None


def ef_law_failure(R: Comonad, A: Structure, B: Structure, k: int,
                   f_table: dict, g_table: dict, h_values: dict,
                   rng: Optional[random.Random] = None) -> Optional[str]:
    """Check the rank-comonad equations pointwise; return the first failed law."""
    plays_a = ef_plays(A, k)
    law = shared_law_failure(R, plays_a, f_table.__getitem__, g_table.__getitem__)
    if law is not None:
        return law
    # parallel-pair equation on plays of plays, sampled
    rng = rng or random.Random(0)
    for _ in range(50):
        length = rng.randint(1, k)
        S = tuple(rng.choice(plays_a) for _ in range(length))
        lifted = tuple(R.counit(x) for x in S)       # elementwise counit
        if R.counit(lifted) != R.counit(S[-1]):
            return "coequaliser"
    return hom_law_failure(R, A, B, plays_a, ef_plays(B, k), h_values)


def pebble_law_failure(R: Comonad, A: Structure, k: int, n: int,
                       f_table: dict, g_table: dict) -> Optional[str]:
    """Check the pebbling-comonad equations on plays of length at most n;
    return the first failed law."""
    plays_a = pebble_plays(A, k, n)
    law = shared_law_failure(R, plays_a, f_table.__getitem__, g_table.__getitem__)
    if law is not None:
        return law
    rng = random.Random(0)
    for _ in range(25):
        length = rng.randint(1, n)
        S = tuple((rng.randint(1, k), rng.choice(plays_a)) for _ in range(length))
        lifted = tuple((p, R.counit(x)) for p, x in S)
        if R.counit(lifted) != R.counit(S[-1][1]):
            return "coequaliser"
    return None


def modal_law_failure(R: Comonad, P: PointedStructure, k: int, f_table: dict,
                      g_of_world: dict) -> Optional[str]:
    """Check the modal-comonad equations, with g read off the last world;
    return the first failed law."""
    plays = modal_plays(P, k)
    f = f_table.__getitem__

    def g(s):
        return g_of_world[R.counit(s)]

    law = shared_law_failure(R, plays, f, g)
    if law is not None:
        return law
    for s in plays:
        out = R.coextend(f, s)
        if out[:1] != (f(s[:1]),):
            return "point-preservation"
        if len(out) != len(s) or out[1::2] != s[1::2]:
            return "label-preservation"
    # parallel-pair equation on paths of the unfolded structure
    unfolded = play_structure(R, P, plays)
    for S in modal_plays(unfolded, k):
        inner = [R.of_id(w) for w in S[::2]]
        lifted = list(S)
        lifted[::2] = [R.counit(x) for x in inner]
        if R.counit(tuple(lifted)) != R.counit(inner[-1]):
            return "coequaliser"
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


# Each comonad's instance at iteration i: a random structure, the element
# shrinking must keep (the point, for modal) and the check of the comonad's
# laws on a shrunk copy of it, given the record R.

def _ef_instance(R: Comonad, cfg: GenConfig, i: int):
    rng = _rng(cfg, i)
    sig = random_signature(cfg, rng)
    A, B, C = (random_structure_with_signature(cfg, rng, sig) for _ in range(3))

    def check(A_: Structure, k_: int) -> Optional[str]:
        r = random.Random(f"{cfg.seed}:{i}:tables")
        plays = ef_plays(A_, k_)
        f_table = {s: r.choice(B.universe) for s in plays}
        g_table = {s: r.choice(C.universe) for s in ef_plays(B, k_)}
        h, target = find_homomorphism(A_, B), B
        if h is None:  # lift the identity of A_ instead
            h, target = {a: a for a in A_.universe}, A_
            f_table = {s: r.choice(A_.universe) for s in plays}
            g_table = {s: r.choice(C.universe) for s in ef_plays(A_, k_)}
        return ef_law_failure(R, A_, target, k_, f_table, g_table, h,
                              rng=random.Random(f"{cfg.seed}:{i}:coeq"))

    return A, None, check


def _pebble_instance(R: Comonad, cfg: GenConfig, i: int):
    rng = _rng(cfg, 10_000 + i)
    A = random_structure(cfg, rng)
    B = random_structure(cfg, rng)
    n = cfg.pebble_play_length

    def check(A_: Structure, k_: int) -> Optional[str]:
        r = random.Random(f"{cfg.seed}:{i}:ptables")
        f_table = {s: r.choice(B.universe) for s in pebble_plays(A_, k_, n)}
        g_table = {s: r.choice(A_.universe) for s in pebble_plays(B, k_, n)}
        return pebble_law_failure(R, A_, k_, n, f_table, g_table)

    return A, None, check


def _modal_instance(R: Comonad, cfg: GenConfig, i: int):
    rng = _rng(cfg, 20_000 + i)
    P = random_pointed(rng, max_worlds=min(cfg.max_universe_size, 4))
    Q = random_pointed(rng, max_worlds=min(cfg.max_universe_size, 4))

    def check(A_: Structure, k_: int) -> Optional[str]:
        P_ = PointedStructure(A_, P.point)
        r = random.Random(f"{cfg.seed}:{i}:mtables")
        plays = modal_plays(P_, k_)
        f_table = {s: r.choice(Q.base.universe) for s in plays}
        g_of_world = {w: r.choice(A_.universe) for w in Q.base.universe}
        law = modal_law_failure(R, P_, k_, f_table, g_of_world)
        if law is not None:
            return law
        h, target = find_homomorphism(A_, Q.base, pre={P.point: Q.point}), Q
        if h is None:
            h, target = {w: w for w in A_.universe}, P_
        return hom_law_failure(R, P_, target, plays, modal_plays(target, k_), h)

    return P.base, P.point, check


INSTANCES = {"ef": _ef_instance, "pebble": _pebble_instance, "modal": _modal_instance}


def _run_iteration(cfg: GenConfig, i: int, tag: str) -> Optional[dict]:
    """Check one comonad's laws at iteration i; on a failure, the report of
    the instance shrunk while the same law fails first."""
    A, keep, check = INSTANCES[tag](COMONADS[tag], cfg, i)
    k = cfg.ks[i % len(cfg.ks)]
    law = check(A, k)
    if law is None:
        return None
    small, k_small = _shrink(A, k, lambda S, kk: check(S, kk) == law, keep)
    return {"comonad": tag, "law": law, "iteration": i, "k": k_small,
            "structure": structure_to_dict(small if keep is None
                                           else PointedStructure(small, keep))}


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
        for tag in INSTANCES:
            failure = _run_iteration(cfg, i, tag)
            checks += 1
            if failure is not None:
                return LawReport(False, cfg.iterations, checks, failure)
    return LawReport(True, cfg.iterations, checks, None)
