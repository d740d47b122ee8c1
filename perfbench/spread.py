#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed for each workload and
prints, per metric, the median of the runs and the spread (distance
between the first and third quartile, as statistics.quantiles(n=4) gives
them, as a share of the median) beside the metric's bound. A spread is
flagged when it is not below a third of its bound.

    python3 perfbench/spread.py --seeds 1,2,3,4,5 [--workloads a,b] [--trace 0]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seeds = [int(s) for s in a.seeds.split(",")]
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for w in names:
        results = [run(bench["command"], w, s, bench["run_seconds"], a.trace) for s in seeds]
        print(f"== {w}: {len(seeds)} runs, all correct: {all(r['correct'] for r in results)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread >= bound / 3:
                flag = "  <-- not below bound/3"
                steady = False
            shown = ", ".join(f"{v:.4g}" for v in values)
            print(f"  {name:14s} median {med:<12.6g} spread {spread:7.4f}"
                  f" bound {bound}{flag}\n      [{shown}]")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
