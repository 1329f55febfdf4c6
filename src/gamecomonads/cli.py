"""Command-line interface.

Exit codes: 0 = equivalent / success, 1 = not equivalent, 2 = usage or input
error (unreadable or unwritable paths too), or an answer that failed its own
re-verification.  All outputs are JSON on stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import coalgebra as coalg_mod
from . import decomposition as dec_mod
from . import equiv as equiv_mod
from .modal import ArityError, view_of
from .structures import (BoundExceeded, CapExceeded, PointedStructure,
                         SignatureMismatch, Structure, StructureError,
                         gaifman_graph, load_structure_file,
                         require_same_signature)


class UsageError(Exception):
    pass


class SelfCheckFailed(Exception):
    """An answer failed its re-verification before being printed: a fault in
    the program, not in the input."""


def _self_check(what: str, ok: bool, msg: Optional[str]) -> None:
    if not ok:
        raise SelfCheckFailed(f"{what} failed verification: {msg}")


def _load(path: str):
    try:
        return load_structure_file(path)
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON ({exc})")
    except StructureError as exc:
        raise UsageError(f"{path}: {exc}")


def _load_plain(path: str) -> Structure:
    A = _load(path)
    return A.base if isinstance(A, PointedStructure) else A


def _load_pointed(path: str) -> PointedStructure:
    A = _load(path)
    if not isinstance(A, PointedStructure):
        raise UsageError(f"{path}: modal commands need a pointed structure "
                         '(add a "point" field)')
    try:
        view_of(A.base)
    except ArityError as exc:
        raise UsageError(f"{path}: {exc}")
    return A


def cmd_check(args) -> int:
    if args.game == "modal":
        A = _load_pointed(args.A)
        B = _load_pointed(args.B)
        if A.base.sig != B.base.sig:
            raise UsageError("signatures differ")
    else:
        A = _load_plain(args.A)
        B = _load_plain(args.B)
        try:
            require_same_signature(A, B)
        except SignatureMismatch as exc:
            raise UsageError(str(exc))
    verdict = equiv_mod.decide(args.game, args.tier, A, B, args.k)
    cert = verdict["certificate"]
    if verdict["equiv"]:
        _check_emitted_certificate(args.tier, cert, A, B)
    if args.cert and cert is not None:
        with open(args.cert, "w", encoding="utf-8") as fh:
            json.dump(cert, fh, indent=2, sort_keys=True)
    print(json.dumps(verdict, sort_keys=True))
    return 0 if verdict["equiv"] else 1


def _check_emitted_certificate(tier: int, cert, A, B) -> None:
    """Re-verify the certificate of a positive verdict before handing it out:
    it must be there, and so must each of its parts (forward and backward at
    tier 1), and every part must verify."""
    if tier == 1 and isinstance(cert, dict):
        parts = [("forward certificate", cert.get("forward"), A, B),
                 ("backward certificate", cert.get("backward"), B, A)]
    else:
        parts = [("certificate", cert, A, B)]
    for what, part, src, dst in parts:
        if not isinstance(part, dict):
            raise SelfCheckFailed(f"a positive verdict came without its {what}")
        _self_check(f"emitted {what}", *equiv_mod.verify_certificate(part, src, dst))


def cmd_param(args) -> int:
    if args.kind == "modal-depth":
        P = _load_pointed(args.A)
        height, kappa, alpha = coalg_mod.modal_parameters(P)
        witness = None
        if kappa is not None:
            witness = {"comonad": "modal", "k": kappa,
                       "alpha": {a: list(s) for a, s in alpha.items()}}
            _self_check("witness", *coalg_mod.verify_coalgebra("modal", P, kappa, alpha))
        out = {"parameter": "modal-depth", "value": height,
               "coalgebra_number": kappa, "witness": witness}
    else:
        A = _load_plain(args.A)
        if args.kind == "tree-depth":
            value, cover = dec_mod.tree_depth(A)
            ok, msg = dec_mod.verify_forest_cover(cover, gaifman_graph(A))
            _self_check("witness", ok and cover.height == value, msg)
            out = {"parameter": "tree-depth", "value": value,
                   "witness": dec_mod.forest_cover_to_json(cover)}
        else:
            value, T = dec_mod.tree_width(A)
            ok, msg = dec_mod.verify_tree_decomposition(T, gaifman_graph(A))
            _self_check("witness", ok and T.width == value, msg)
            out = {"parameter": "tree-width", "value": value,
                   "witness": dec_mod.decomposition_to_json(T)}
    if args.witness:
        with open(args.witness, "w", encoding="utf-8") as fh:
            json.dump(out["witness"], fh, indent=2, sort_keys=True)
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_coalgebra(args) -> int:
    tag = args.comonad
    A = _load_pointed(args.A) if tag == "modal" else _load_plain(args.A)
    if args.alpha is None:
        alpha = coalg_mod.construct_coalgebra(tag, A, args.k)
        if alpha is None:
            print(json.dumps({"comonad": tag, "k": args.k, "coalgebra": None},
                             sort_keys=True))
            return 1
        parsed = coalg_mod.read_coalgebra(tag, alpha)
        _self_check("constructed coalgebra",
                    *coalg_mod.verify_coalgebra(tag, A, args.k, parsed))
        out = {"comonad": tag, "k": args.k, "coalgebra": alpha}
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(out, fh, indent=2, sort_keys=True)
        print(json.dumps(out, sort_keys=True))
        return 0
    try:
        with open(args.alpha, encoding="utf-8") as fh:
            data = json.load(fh)
        raw = data
        if isinstance(data, dict):
            raw = data.get("alpha", data.get("coalgebra", data))
        if not isinstance(raw, dict):
            raise UsageError(f"{args.alpha}: malformed coalgebra (expected an object)")
        parsed = coalg_mod.read_coalgebra(tag, raw)
    except FileNotFoundError:
        raise UsageError(f"no such file: {args.alpha}")
    except ValueError as exc:  # invalid JSON, or a play its reader rejects
        raise UsageError(f"{args.alpha}: malformed coalgebra ({exc})")
    ok, msg = coalg_mod.verify_coalgebra(tag, A, args.k, parsed)
    print(json.dumps({"comonad": tag, "k": args.k, "valid": ok,
                      "violation": msg}, sort_keys=True))
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    from . import lawcheck as law_mod  # only the law suite needs it

    cfg = law_mod.GenConfig(seed=args.seed, iterations=args.iters)
    report = law_mod.run_law_suite(cfg)
    for line in report.lines():
        print(line)
    print(json.dumps(report.to_json(), sort_keys=True))
    return 0 if report.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every `main` call."""
    parser = argparse.ArgumentParser(
        prog="gamecomonads",
        description="Game comonads on finite relational structures: "
                    "equivalence games, width parameters, coalgebra certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide an equivalence tier between two structures")
    p.add_argument("--game", choices=tuple(equiv_mod.SOLVERS), required=True)
    p.add_argument("--tier", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("-k", type=int, required=True, help="resource bound (>= 1)")
    p.add_argument("A")
    p.add_argument("B")
    p.add_argument("--cert", help="write the strategy certificate here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("param", help="compute tree-depth, tree-width or modal depth")
    p.add_argument("--kind", choices=("tree-depth", "tree-width", "modal-depth"),
                   required=True)
    p.add_argument("A")
    p.add_argument("--witness", help="write the witness here")
    p.set_defaults(func=cmd_param)

    p = sub.add_parser("coalgebra", help="construct or verify a coalgebra")
    p.add_argument("--comonad", choices=tuple(equiv_mod.SOLVERS), required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("A")
    p.add_argument("alpha", nargs="?", default=None,
                   help="coalgebra JSON to verify; omit to construct one")
    p.add_argument("--out", help="write the constructed coalgebra here")
    p.set_defaults(func=cmd_coalgebra)

    p = sub.add_parser("selftest", help="run the randomized law suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=200)
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if getattr(args, "k", 1) < 1:
        print("error: k must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SelfCheckFailed as exc:
        print(f"error: self-check failed, no answer printed: {exc}", file=sys.stderr)
        return 2
    except (CapExceeded, BoundExceeded, SignatureMismatch, ArityError,
            StructureError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
