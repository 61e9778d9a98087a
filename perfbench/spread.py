#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

Runs the command in BENCHMARK.json once per seed on one workload and
prints, per metric, the median and the interquartile range as a share of
the median (quartiles as Python's statistics.quantiles(values, n=4)
gives them), next to the metric's bound.

    python3 perfbench/spread.py --workload task_net --seeds 1 2 3 4 5 [--trace 1]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--verbose", action="store_true", help="print every value")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", args.trace,
        ]
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stdout.write(done.stdout + done.stderr)
            sys.exit(f"seed {seed}: exit {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: ok", flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
        else:
            spread = 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else ("WITHIN" if spread <= bound else "OVER")
        print(f"{name:<44} median {med:>16.6g}  spread {spread:7.4f}  bound {bound}  {flag}")
        if args.verbose:
            print("    " + " ".join(f"{v:.6g}" for v in vals))


if __name__ == "__main__":
    main()
