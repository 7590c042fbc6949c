#!/usr/bin/env python3
"""Repeats each workload with different seeds and shows how steady each
end-to-end metric is, so the regression bounds in BENCHMARK.json can be
derived again on another host.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads objects class-seq net-durable] [--seconds S]
        [--out .bench_build/steadiness.json]

For every (workload, metric) it prints the median and quartiles of the runs
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, the
metric's bound, and whether the spread is under a third of the bound; the
latencies run.py reports ungated follow, without a bound. The
suggested bound is three times the widest spread over the workloads,
rounded up to 0.01 and capped at 0.25. setup_s is reported but not held to
its bound: only its median is compared between two sets of runs.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit("run failed: " + " ".join(cmd))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # The info line's ungated latencies are shown too, marked as such.
    for name, m in json.loads(lines[-2])["ungated"].items():
        result["metrics"].setdefault(name, dict(m, ungated=True))
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="+",
                   default=["objects", "class-seq", "net-durable"])
    p.add_argument("--seconds", type=float, default=None,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--out", default=os.path.join(ROOT, ".bench_build",
                                                 "steadiness.json"))
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {}
    widest = {name: 0.0 for name in bounds}
    for w in args.workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(w, seed, seconds, 0)
            runs.append(r)
            print("%s seed %d: correct=%s attempted=%d failed=%d" % (
                w, seed, r["correct"], r["attempted"], r["failed"]),
                file=sys.stderr)
        rows = {}
        print("\n%s (%d runs of %gs)" % (w, len(runs), seconds))
        print("  %-22s %14s %14s %14s %8s %6s %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "ok"))
        names = list(bounds) + sorted(
            n for n in runs[0]["metrics"] if n not in bounds)
        for name in names:
            bound = bounds.get(name)
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            gated = bound is not None and name != "setup_s"
            ok = (spread <= bound / 3) if gated else True
            if bound is not None:
                widest[name] = max(widest[name], spread)
            rows[name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bound}
            print("  %-22s %14.4f %14.4f %14.4f %8.4f %6s %s" % (
                name, med, q1, q3, spread,
                "-" if bound is None else "%.2f" % bound,
                ("yes" if ok else "NO") if gated else "(not gated)"))
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("  failed share: %s; all correct: %s" % (
            shares, all(r["correct"] for r in runs)))
        results[w] = {"metrics": rows, "failed_shares": shares,
                      "correct": all(r["correct"] for r in runs)}

    print("\nsuggested bounds (3 x widest spread, capped at 0.25):")
    for name, spread in widest.items():
        print("  %-22s %.2f (BENCHMARK.json: %.2f)" % (
            name, min(0.25, math.ceil(spread * 300) / 100), bounds[name]))
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"seconds": seconds, "first_seed": args.first_seed,
                   "runs": args.runs, "workloads": results}, f, indent=1)
    print("\nwrote " + os.path.relpath(args.out, ROOT))


if __name__ == "__main__":
    main()
