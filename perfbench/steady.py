"""Steadiness of the end-to-end metrics of one workload.

    python3 perfbench/steady.py --workload NAME [--runs 5] [--seed 1] [--seconds S]

Runs perfbench/run.py --runs times, one run after another with seeds
seed, seed+1, ..., and prints for each end-to-end metric of BENCHMARK.json
its median, quartiles and spread (interquartile distance over the median)
beside the metric's bound.  A spread above a third of its bound leaves too
little room to tell a regression from noise; a spread above the bound
makes the command exit 1.  Also checks that every run has the same share of
failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def main(argv=None):
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    results = []
    for k in range(args.runs):
        seed = args.seed + k
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print("run with seed %d exited %d" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            " ".join("%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items())),
            flush=True)

    print("\n%-16s %12s %12s %12s %8s %8s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    status = 0
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        bound = metric["bound"]
        if spread > bound:
            verdict, status = "OVER BOUND", 1
        elif spread > bound / 3:
            verdict = "over a third of the bound"
        else:
            verdict = "steady"
        print("%-16s %12.5g %12.5g %12.5g %7.1f%% %7.1f%%  %s" % (
            metric["name"], median, q1, q3, 100 * spread, 100 * bound, verdict))
    shares = {r["failed"] / r["attempted"] for r in results}
    print("failed share: %s" % ("identical" if len(shares) == 1 else "DIFFERS %s" % shares))
    if not all(r["correct"] for r in results):
        print("some runs report incorrect outputs")
        status = 1
    return status if len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
