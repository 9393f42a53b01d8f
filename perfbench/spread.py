#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

From the root of a veritas checkout:

    python3 perfbench/spread.py --workload guided --seeds 1-10 [--trace 0]

For every run it checks the result line against BENCHMARK.json (the metric
names and units it must print). Then, per metric, it prints the median of
the runs and the distance between the first and third quartile as a share
of that median (statistics.quantiles(values, n=4)), next to the metric's
bound. A spread above a third of the bound is marked.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        first, last = text.split("-", 1)
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--series", action="store_true",
                        help="also print every run's value, in seed order")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    values = {metric["name"]: [] for metric in declared}
    for seed in parse_seeds(args.seeds):
        command = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace)]
        run = subprocess.run(command, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            print(f"seed {seed}: result keys {sorted(result)}")
            return 1
        if not result["correct"] or result["attempted"] < 1:
            print(f"seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']}")
            return 1
        metrics = result["metrics"]
        if set(metrics) != set(values):
            print(f"seed {seed}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(metrics) ^ set(values))}")
            return 1
        for metric in declared:
            got = metrics[metric["name"]]
            if got["unit"] != metric["unit"]:
                print(f"seed {seed}: {metric['name']} unit {got['unit']}")
                return 1
            values[metric["name"]].append(got["value"])
        print(f"seed {seed}: ok, attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)

    print(f"{'metric':44} {'median':>14} {'spread':>8} {'bound':>6}")
    for metric in declared:
        series = values[metric["name"]]
        median = statistics.median(series)
        spread = float("nan")
        if len(series) >= 2 and median != 0:
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / abs(median)
        bound = metric.get("bound")
        mark = ""
        if bound is not None and not spread <= bound / 3:
            mark = "  <-- above a third of the bound"
        bound_text = f"{bound:6.3f}" if bound is not None else "     -"
        print(f"{metric['name']:44} {median:14.6f} {spread:8.4f} "
              f"{bound_text}{mark}")
        if args.series:
            print("    " + " ".join(f"{value:.4g}" for value in series))
    return 0


if __name__ == "__main__":
    sys.exit(main())
