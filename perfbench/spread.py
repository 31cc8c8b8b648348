#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's spread.

    python3 perfbench/spread.py --workload <name> --seeds 1-10 [--seconds S] [--trace 0|1]

For every metric: the median and quartiles over the runs (as
statistics.quantiles(values, n=4) gives them), the spread (third minus
first quartile, as a share of the median) and, for end-to-end metrics, the
spread as a share of the metric's bound in BENCHMARK.json. Seconds default
to BENCHMARK.json's run_seconds. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    units = {}
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if run.returncode != 0:
            print(f"seed {seed}: exit {run.returncode}", file=sys.stderr)
            return 1
        result = json.loads(run.stdout.strip().splitlines()[-1])
        ok = result["correct"] and result["failed"] == 0
        print(f"seed {seed}: correct={ok} attempted={result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"\n{args.workload}: {len(next(iter(values.values())))} runs")
    print(f"{'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'/bound':>7}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
        spread = (q3 - q1) / med if med else float("nan")
        share = f"{spread / bounds[name]:7.2f}" if name in bounds else ""
        print(f"{name:40} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {share} {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
