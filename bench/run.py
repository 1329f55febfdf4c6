"""End-to-end benchmark of the gamecomonads CLI.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, measures set-up time with
fresh interpreters, then runs the workload's calls in one child process
(see child.py) for about S seconds.  The package is imported from this
checkout's own src/.  The last line on stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  Result
and trace files go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import speed
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
OUT = os.path.join(ROOT, ".bench_out")
DEADLINE_S = 170
SETUP_SAMPLES = 8   # fresh interpreters before the calls, and as many after

# a one-element structure: `check` on it is the cheapest complete CLI call
TRIVIAL = {"signature": {"R": 2}, "universe": ["a"], "relations": {"R": []}}
TRIVIAL_ARGV = ["check", "--game", "ef", "--tier", "1", "-k", "1"]


def setup_sample(path: str) -> float:
    """One fresh interpreter: import the package, answer a trivial check."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "from gamecomonads.cli import entry; entry()",
                           *TRIVIAL_ARGV, path, path],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or json.loads(proc.stdout)["equiv"] is not True:
        raise RuntimeError(f"trivial check failed: exit {proc.returncode} {proc.stderr[-300:]}")
    return elapsed


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of the
    order statistics, steadier than one or two of them when calls are noisy."""
    xs = sorted(values)
    n = len(xs)
    cdf = [_beta_cdf(p * (n + 1), (1 - p) * (n + 1), i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by Lentz's continued fraction."""
    if x <= 0 or x >= 1:
        return max(0.0, min(1.0, x))
    if x > (a + 1) / (a + b + 2):
        return 1 - _beta_cdf(b, a, 1 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(1 - x)) / a
    tiny = 1e-300
    c, d = 1.0, 0.0
    f = 1.0
    for i in range(400):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1 + num * d
        d = 1 / (d if abs(d) > tiny else tiny)
        c = 1 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1 - c * d) < 1e-14:
            break
    return front * (f - 1)


def run(args, work: str) -> int:
    t0 = time.perf_counter()
    plan = workloads.build(args.workload, args.seed)
    paths = {}
    for name, S in plan.files.items():
        paths[name] = os.path.join(work, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(S, fh)
    calls = [{**c, "argv": [paths.get(a, a) for a in c["argv"]]} for c in plan.calls]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    manifest = os.path.join(work, "manifest.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump({"root": ROOT, "seconds": args.seconds, "trace": bool(args.trace),
                   "trace_out": os.path.join(OUT, f"trace-{tag}.json"),
                   "files": paths, "calls": calls}, fh)

    trivial = os.path.join(work, "trivial.json")
    with open(trivial, "w", encoding="utf-8") as fh:
        json.dump(TRIVIAL, fh)
    setup_sample(trivial)  # warm-up: compiles the package's bytecode once
    setup, probes = [], []

    def sample_setup():
        for _ in range(SETUP_SAMPLES):
            probes.append(speed.probe())
            setup.append(setup_sample(trivial))

    sample_setup()

    remaining = DEADLINE_S - (time.perf_counter() - t0)
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "child.py"), manifest],
                          cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    if proc.returncode != 0:
        print(f"workload process failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    sample_setup()

    calls_s = res["scaled_call_s"]
    p90 = quantile(calls_s, 0.9)
    beyond = sum(t > p90 for t in calls_s)
    traced = " traced" if args.trace else ""
    print(f"{args.workload} seed {args.seed}: {len(res['pass_s'])}{traced} pass(es) of {len(calls)} "
          f"calls, {len(calls_s)} timed calls, {beyond} beyond p90; "
          f"attempted {res['attempted']}, failed {res['failed']}")
    for msg in res["messages"]:
        print(f"  {msg}")
    if args.trace:
        metrics = per_layer(res)
        if res["absent"]:
            print(f"  absent from the program: {', '.join(res['absent'])}")
    else:
        if beyond < 10:
            print(f"only {beyond} calls beyond p90: too few calls for a tail", file=sys.stderr)
            return 1
        metrics = end_to_end(res, speed.scale(statistics.median(setup), probes))
    result = {"correct": res["wrong"] == 0, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "raw": {"pass_s": res["pass_s"], "call_s": res["call_s"],
                                     "setup_s": setup, "setup_probe_s": probes,
                                     "probe_s": res["probe_s"]},
                   "scaled": {"pass_s": res["scaled_pass_s"], "call_s": calls_s}}, fh)
    print(json.dumps(result))
    return 0


def end_to_end(res: dict, setup_s: float) -> dict:
    """The end-to-end metrics of an untraced run, times at reference speed."""
    return {
        "batch_s": (statistics.median(res["scaled_pass_s"]), "s"),
        "verdict_s.p50": (quantile(res["scaled_call_s"], 0.5), "s"),
        "verdict_s.p90": (quantile(res["scaled_call_s"], 0.9), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(res: dict) -> dict:
    """The per-layer metrics of a traced run, per pass; layer times are raw wall times."""
    metrics = {name: (value, _unit(name)) for name, value in res["layers"].items()}
    overhead = statistics.median(res["scaled_pass_s"]) - res["reference_pass_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_kb"):
        return "KiB"
    return "ratio" if name.endswith("_ratio") else "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "gamecomonads", "cli.py")):
        print(f"no gamecomonads source under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        return run(args, work)
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
