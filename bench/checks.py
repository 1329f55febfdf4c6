"""Checks on the output of each CLI call, and across the calls of one pass."""

from __future__ import annotations

import json
from typing import Optional

import oracles

OK, FAILED, WRONG = "ok", "failed", "wrong"


def check_call(call: dict, rc: int, out: str, files: dict) -> tuple[str, Optional[str]]:
    """Classify one call: FAILED if it broke (exit code, unreadable output),
    WRONG if it answered and the answer is wrong, OK otherwise."""
    if rc not in (0, 1):
        return FAILED, f"exit code {rc}"
    try:
        data = json.loads(out)
    except ValueError:
        return FAILED, "output is not one JSON object"
    try:
        msg = _CHECKS[call["kind"]](call, call["expect"], rc, data, files)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        msg = f"malformed output ({type(exc).__name__}: {exc})"
    return (OK, None) if msg is None else (WRONG, msg)


def _check_verdict(call, expect, rc, data, files) -> Optional[str]:
    if (data["comonad"], data["tier"], data["k"]) != (call["game"], call["tier"], call["k"]):
        return "verdict is stamped with another game, tier or k"
    if data["equiv"] is not expect["equiv"] or rc != (0 if expect["equiv"] else 1):
        return f"equiv is {data['equiv']} with exit code {rc}, expected {expect['equiv']}"
    cert = data["certificate"]
    if data["equiv"] and call["tier"] > 1 and cert.get("comonad") != call["game"]:
        return "positive verdict without a certificate of its game"
    if data["equiv"] and call["tier"] == 1 and set(cert) != {"forward", "backward"}:
        return "positive tier-1 verdict without forward and backward parts"
    return None


def _check_width(call, expect, rc, data, files) -> Optional[str]:
    kind, value = call["kind"], data["value"]
    if rc != 0 or data["parameter"] != kind or not isinstance(value, int):
        return "no parameter value"
    if expect["value"] is not None and value != expect["value"]:
        return f"{kind} is {value}, expected {expect['value']}"
    V, E = oracles.gaifman(files[call["file"]])
    if kind == "tree-width":
        if value < expect["degeneracy"]:
            return f"tree-width {value} is below the degeneracy {expect['degeneracy']}"
        return oracles.check_tree_decomposition(data["witness"], V, E, value)
    if value < expect["degeneracy"] + 1:
        return f"tree-depth {value} is below degeneracy + 1"
    return oracles.check_forest_cover(data["witness"], V, E, value)


def _check_coalgebra(call, expect, rc, data, files) -> Optional[str]:
    alpha = data["coalgebra"]
    if not expect["exists"]:
        return None if rc == 1 and alpha is None else "coalgebra built below the least index"
    if rc != 0 or alpha is None:
        return "no coalgebra at the least index"
    return oracles.check_pebble_coalgebra(alpha, files[call["file"]], expect["k"])


def _check_modal_depth(call, expect, rc, data, files) -> Optional[str]:
    if rc != 0 or (data["value"], data["coalgebra_number"]) != (expect["value"],
                                                              expect["coalgebra_number"]):
        return (f"modal depth {data['value']}/{data['coalgebra_number']}, expected "
                f"{expect['value']}/{expect['coalgebra_number']}")
    if expect["coalgebra_number"] is None:
        return None if data["witness"] is None else "witness without a coalgebra number"
    return oracles.check_modal_witness(data["witness"], files[call["file"]],
                                       expect["coalgebra_number"])


_CHECKS = {"check": _check_verdict, "tree-width": _check_width, "tree-depth": _check_width,
           "coalgebra": _check_coalgebra, "modal-depth": _check_modal_depth}


def cross_check(calls: list[dict], outputs: list[Optional[dict]]) -> list[tuple[int, str]]:
    """Laws that hold between calls: tier 3 => tier 2 => tier 1 and k+1 => k
    on one pair, and tree-width + 1 <= tree-depth on one graph.  Returns the
    index of the call on the stronger side of each broken law."""
    verdicts: dict = {}
    widths: dict = {}
    for i, (call, data) in enumerate(zip(calls, outputs)):
        if data is None:
            continue
        if call["kind"] == "check":
            verdicts.setdefault((call["game"], call["pair"]), {})[(call["tier"], call["k"])] = \
                (i, data["equiv"])
        elif call["kind"] in ("tree-width", "tree-depth"):
            widths.setdefault(call["expect"]["graph"], {})[call["kind"]] = (i, data["value"])
    broken = []
    for table in verdicts.values():
        for (tier, k), (i, equiv) in table.items():
            for weaker in ((tier - 1, k), (tier, k - 1)):
                if equiv and weaker in table and not table[weaker][1]:
                    broken.append((i, f"equivalent at tier {tier}, k={k} but not at "
                                      f"tier {weaker[0]}, k={weaker[1]}"))
    for table in widths.values():
        if len(table) == 2 and table["tree-width"][1] + 1 > table["tree-depth"][1]:
            broken.append((table["tree-depth"][0], "tree-depth below tree-width + 1"))
    return broken
