"""Runs one workload's calls in this process through `gamecomonads.cli.main`.

Usage: python3 bench/child.py MANIFEST

The manifest (written by run.py) names the checkout, the run length, whether
to trace, and the calls.  Whole passes over the calls repeat while the
next one should end within half a pass of the run length; there is always
at least one.  In a
traced run one untraced pass comes first, as the reference for the tracing
overhead.  The last line on stdout is a JSON summary for run.py.
"""

from __future__ import annotations

import gc
import io
import json
import os
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import checks
import speed
from tracing import Tracer


def run_pass(main, calls, files, sampler, tracer=None) -> dict:
    times, scaled, statuses, messages, summaries = [], [], [], [], []
    pass_start = time.perf_counter()
    for i, call in enumerate(calls):
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with redirect_stdout(out), redirect_stderr(err):
            spent = sampler.spent
            start = time.perf_counter()
            try:
                rc = tracer.root(i, main, call["argv"]) if tracer else main(call["argv"])
            except Exception as exc:  # a crash is counted as a failed call, and the run goes on
                rc, crash = None, f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            times.append(end - start - (sampler.spent - spent))
        scaled.append(speed.scale(times[-1], sampler.around(start, end, speed.CALL_WINDOW_S)))
        text = out.getvalue()
        if tracer:
            tracer.out_bytes += len(text.encode())
        if rc is None:
            status, msg = checks.FAILED, crash
        else:
            status, msg = checks.check_call(call, rc, text, files)
        summary = None
        if status == checks.OK:
            data = json.loads(text)
            summary = {"equiv": data.get("equiv"), "value": data.get("value")}
        statuses.append(status)
        summaries.append(summary)
        messages.append(msg and f"{' '.join(call['argv'])}: {msg} {err.getvalue()[-300:]}")
    for i, msg in checks.cross_check(calls, summaries):
        statuses[i] = checks.WRONG
        messages[i] = f"{' '.join(calls[i]['argv'])}: {msg}"
    around = sampler.around(pass_start, time.perf_counter())
    return {"pass_s": sum(times), "times": times, "statuses": statuses,
            "scaled_pass_s": speed.scale(sum(times), around), "scaled_times": scaled,
            "messages": [m for m in messages if m]}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        manifest = json.load(fh)
    src = os.path.join(manifest["root"], "src")
    sys.path.insert(0, src)
    import gamecomonads.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"gamecomonads was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    files = {}
    for name, path in manifest["files"].items():
        with open(path, encoding="utf-8") as fh:
            files[name] = json.load(fh)
    calls, seconds = manifest["calls"], manifest["seconds"]

    start = time.perf_counter()
    tracer = None
    reference = None
    with speed.Sampler() as sampler:
        if manifest["trace"]:
            reference = run_pass(cli.main, calls, files, sampler)
            tracer = Tracer()
            tracer.install()
        passes = []
        loop_start = time.perf_counter()
        while True:
            passes.append(run_pass(cli.main, calls, files, sampler, tracer))
            # another pass only if it should end within half a pass of the run length
            now = time.perf_counter()
            if now - start + 0.5 * (now - loop_start) / len(passes) > seconds:
                break

    every = passes + ([reference] if reference else [])
    statuses = [s for p in every for s in p["statuses"]]
    summary = {
        "pass_s": [p["pass_s"] for p in passes],
        "scaled_pass_s": [p["scaled_pass_s"] for p in passes],
        "call_s": [t for p in passes for t in p["times"]],
        "scaled_call_s": [t for p in passes for t in p["scaled_times"]],
        "attempted": len(statuses),
        "failed": sum(s != checks.OK for s in statuses),
        "wrong": sum(s == checks.WRONG for s in statuses),
        "messages": [m for p in every for m in p["messages"]][:10],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probe_s": statistics.median(sampler.probes),
    }
    if tracer:
        summary["reference_pass_s"] = reference["scaled_pass_s"]
        summary["layers"] = tracer.metrics(len(passes))
        summary["absent"] = tracer.absent
        with open(manifest["trace_out"], "w", encoding="utf-8") as fh:
            json.dump({"passes": len(passes), "calls": [c["argv"] for c in calls],
                       **tracer.dump()}, fh)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
