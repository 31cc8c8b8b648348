#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/Cargo.toml, against the repository's
crates, release profile) into $CARGO_TARGET_DIR (default .bench_build),
then runs the workload in processes of its own, so that peak memory is per
workload and no state carries over between workloads. OMFL_THREADS is
pinned to the number of CPUs this process may run on.

An untraced run splits --seconds over several processes (PROCESSES). Speed
varies more between processes than between passes inside one: processes
land on different physical memory, and other load on the host comes and
goes over seconds. So the serve timings (BEST_OF) report the best process,
the one that ran with the least interference, which is what repeats from
run to run; set-up time and peak memory report the median over processes.
pd-1m gets fewer processes because one of its passes is long. A traced run
is one process.

Standard output ends with one JSON object: `correct`, `attempted`,
`failed`, and `metrics` (the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1). Summary lines starting
with `#` come before it. A traced run also writes its spans to
perfbench/out/. Exits non-zero, printing no result, when the build or a
run fails.
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
WORKLOADS = ("pd-1m", "pd-4k-graph", "fleet-mixed")
# Limit on the benchmark processes of one run, counted once the build is
# done (a run with a warm build ends within 180 s).
RUN_LIMIT_S = 175
# The first run in a fresh checkout compiles the workspace crates.
BUILD_LIMIT_S = 850
# Processes an untraced run of each workload is split over.
PROCESSES = {"pd-1m": 2, "pd-4k-graph": 5, "fleet-mixed": 6}
# Serve timings taken from the best process, and what "best" means.
BEST_OF = {"arrivals_per_s": max, "arrival_p50_us": min, "arrival_p99_us": min}


def run_once(cmd, env, limit):
    """Runs one benchmark process; returns (notes, result) or None."""
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=limit)
    except (OSError, subprocess.TimeoutExpired) as e:
        # subprocess.run kills and reaps the child on a timeout.
        print(f"error: the run did not finish: {e}", file=sys.stderr)
        return None
    if run.returncode != 0:
        print(f"error: the run exited with {run.returncode}", file=sys.stderr)
        return None
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("error: the run printed no JSON result", file=sys.stderr)
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"error: malformed result keys {sorted(result)}", file=sys.stderr)
        return None
    return lines[:-1], result


def merge(results):
    """Sums the counts and takes each metric's best (BEST_OF) or median over
    the processes; the served share is recomputed from the summed counts,
    so that a failure in any one process shows."""
    merged = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        pick = BEST_OF.get(name, statistics.median)
        merged["metrics"][name] = {"value": pick(values), "unit": first["unit"]}
    if "served_share" in merged["metrics"]:
        share = 1 - merged["failed"] / max(merged["attempted"], 1)
        merged["metrics"]["served_share"]["value"] = share
    return merged


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build_cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build_cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: benchmark build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("error: benchmark build failed", file=sys.stderr)
        return 1

    started = time.monotonic()
    threads = len(os.sched_getaffinity(0))
    env["OMFL_THREADS"] = str(threads)
    procs = 1 if args.trace else PROCESSES[args.workload]
    cmd = [
        os.path.join(target, "release", "omfl-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds / procs),
        "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--spans-dir", os.path.join(HERE, "out")]
    results = []
    for k in range(procs):
        once = run_once(cmd, env, RUN_LIMIT_S - (time.monotonic() - started))
        if once is None:
            return 1
        notes, result = once
        for line in notes:
            print(f"# [process {k}] {line.lstrip('# ')}")
        results.append(result)

    merged = merge(results)
    if procs > 1:
        for name, m in merged["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            print(f"# {name}: {m['value']:.6g} (median {med:.6g} q1 {q1:.6g} "
                  f"q3 {q3:.6g} over {procs} processes) [{m['unit']}]")
    print(f"# OMFL_THREADS={threads}; run took {time.monotonic() - started:.1f} s")
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
