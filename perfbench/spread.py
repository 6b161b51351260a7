#!/usr/bin/env python3
"""Measure the run-to-run spread of the end-to-end metrics.

Run from the root of a checkout:

    python3 perfbench/spread.py

For each workload in BENCHMARK.json it runs the benchmark ten times,
with seeds 1 to 10, and prints every run's metrics, then for every
end-to-end metric the median of the runs and the distance between their
first and third quartiles as a share of the median
(statistics.quantiles(values, n=4)), beside the metric's bound.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {}
    for w in workloads:
        runs[w] = []
        for seed in range(1, RUNS + 1):
            metrics = run_once(w, seed, bench["run_seconds"])
            runs[w].append(metrics)
            print(f"{w} seed {seed}: " + " ".join(
                f"{name}={m['value']:.6g}" for name, m in sorted(metrics.items())),
                flush=True)
    print(f"\n{'workload':8} {'metric':26} {'median':>12} {'spread':>8} {'bound':>6}")
    for w in workloads:
        for m in bench["end_to_end"]:
            values = [r[m["name"]]["value"] for r in runs[w]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            print(f"{w:8} {m['name']:26} {med:12.6g} {(q3 - q1) / med:8.4f} {m['bound']:6g}")


if __name__ == "__main__":
    main()
