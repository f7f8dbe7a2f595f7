#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload several times with distinct seeds, interleaving the
workloads so that slow drifts of the host spread over all of them, and
prints for each end-to-end metric its median, quartiles and interquartile
spread as a share of the median, next to the bound in BENCHMARK.json.
Then runs each workload's traced mode twice on one seed and checks that
every exact count repeats bit for bit. Records a host fingerprint.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--seed0 1]
                                [--workloads a,b] [--no-trace]

Run from the repository root. Exits non-zero when a run fails, a check
fails, a spread exceeds its bound or an exact count differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer counts that are functions of the seed alone.
EXACT = [
    "des.events",
    "des.decisions",
    "des.peak_queue_live",
    "core.replan.touched",
    "failure.outages",
    "failure.kills",
    "failure.wasted_ticks",
    "des.slots",
    "scenario.cache.bytes",
]


def fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model}


def run(workload, seed, seconds, trace):
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {p.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--no-trace", action="store_true")
    a = ap.parse_args()
    workloads = a.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    host = fingerprint()
    print(f"host: {host['nproc']} CPUs, {host['cpu_model']}")

    results = {w: [] for w in workloads}
    ok = True
    for r in range(a.runs):
        for w in workloads:
            res = run(w, a.seed0 + r, a.seconds, 0)
            results[w].append(res)
            ok &= res["correct"] and res["failed"] == 0
            vals = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
            print(f"run {r + 1}/{a.runs} {w} seed {a.seed0 + r}: {res['wall_s']:.1f} s wall, "
                  f"correct={res['correct']} {vals}", flush=True)

    print()
    print(f"{'workload':<16} {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for w in workloads:
        for name in bounds:
            values = [res["metrics"][name]["value"] for res in results[w]]
            med, q1, q3, s = spread(values)
            flag = "" if s <= bounds[name] else "  OVER BOUND"
            ok &= s <= bounds[name]
            print(f"{w:<16} {name:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{s:>8.3f} {bounds[name]:>6}{flag}")
        shares = sorted({res["failed"] / res["attempted"] for res in results[w]})
        print(f"{w:<16} failed share per run: {shares}")

    if not a.no_trace:
        print()
        for w in workloads:
            first = run(w, a.seed0, a.seconds, 1)
            second = run(w, a.seed0, a.seconds, 1)
            ok &= first["correct"] and second["correct"]
            ok &= first["failed"] == 0 and second["failed"] == 0
            diffs = [k for k in EXACT
                     if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
            counts = " ".join(f"{k}={first['metrics'][k]['value']:.0f}" for k in EXACT)
            print(f"{w}: exact counts {'repeat' if not diffs else 'DIFFER: ' + ', '.join(diffs)}"
                  f" ({counts}); traced run {first['wall_s']:.1f} s")
            ok &= not diffs
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
