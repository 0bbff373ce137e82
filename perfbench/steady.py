#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload N times for BENCHMARK.json's run_seconds, with seeds
base..base+N-1, alternating the workload order between rounds, and prints
for each end-to-end metric the median, the quartiles and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json. A spread
above a third of the bound is flagged.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 10 --seed-base 101

Run from the repository root. The benchmark is built once before timing.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
        print(f"!! {workload} seed {seed}: correct=false, failed={result['failed']}")
    return result


def spread(values):
    """(median, q1, q3, (q3 - q1) / median), quartiles from statistics.quantiles."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    rel = (q3 - q1) / med if med else (0.0 if q3 == q1 else float("inf"))
    return med, q1, q3, rel


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    if args.runs < 2:
        parser.error("--runs must be at least 2 to compute quartiles")

    subprocess.run(
        ["cargo", "build", "--quiet", "--release", "--offline",
         "--manifest-path", "perfbench/Cargo.toml"],
        check=True,
    )
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.seed_base + i
            r = run_once(spec["command"], w, seed, seconds)
            results[w].append(r)
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: attempted={r['attempted']} "
                  f"failed={r['failed']}", flush=True)

    worst = 0.0
    for w in workloads:
        print(f"\n== {w} ({args.runs} runs, {seconds} s each)")
        print(f"{'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        names = list(results[w][0]["metrics"])
        for name in names:
            values = [r["metrics"][name]["value"] for r in results[w]]
            unit = results[w][0]["metrics"][name]["unit"]
            med, q1, q3, rel = spread(values)
            bound = bounds[name]
            worst = max(worst, rel / bound)
            flag = ""
            if rel > bound:
                flag = "  OVER BOUND"
            elif rel > bound / 3:
                flag = "  over 1/3 of bound"
            print(f"{name + ' (' + unit + ')':<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{rel:>8.3f} {bound:>6}{flag}")
        failed = sum(r["failed"] for r in results[w])
        print(f"failed queries across runs: {failed}")
    print(f"\nlargest spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
