"""twistcalc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (flagship, algebra or session; see workloads.py) in this
process against the sources in ../src, checks every output, and prints one
JSON object as the last line of standard output: `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end ones,
measured for about --seconds of rounds; with --trace 1 they are the
per-layer ones from one traced round, which also traces its set-up (see
tracer.py), and the trace is written to perfbench/out/.  Without
--workload the three workloads run one after another, each in its own
fresh process.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("flagship", "algebra", "session")
SETUP_BEFORE, SETUP_AFTER = 3, 3   # timed builds around the rounds, besides one per round
# the highest percentile with at least ten query samples beyond it in one round:
# flagship 146 queries a round, algebra 40, session 100
TAIL_PERCENTILE = {"flagship": 93, "algebra": 75, "session": 90}

clock = time.perf_counter


def load_engine():
    """Import twistcalc from this checkout's sources, never from elsewhere."""
    if not (SRC / "twistcalc" / "__init__.py").is_file():
        sys.exit("perfbench: no twistcalc sources under %s" % SRC)
    sys.path[:0] = [str(SRC), str(HERE)]
    import twistcalc
    if Path(twistcalc.__file__).resolve().parent != SRC / "twistcalc":
        sys.exit("perfbench: twistcalc imported from %s, not %s" % (twistcalc.__file__, SRC))


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) distribution.

    Query latencies spread over two decades with gaps between them, and a
    single order statistic jumps across a gap when two queries near it
    trade places; this estimate moves smoothly instead.
    """
    import mpmath

    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, k / n, regularized=True)) for k in range(n + 1)]
    return sum((cdf[k + 1] - cdf[k]) * x for k, x in enumerate(ordered))


def measure(name, seed, seconds, trace):
    """Rounds on fresh state, at least the workload's `min_rounds`, until
    another round would pass `seconds`.

    Each round's outputs are checked right after it, outside the timed
    region, and then dropped, so the peak resident set does not grow with
    the number of rounds.
    """
    import workloads

    wl = workloads.WORKLOADS[name]()
    rng = random.Random("%s/%d" % (name, seed))
    ops = workloads.Ops()
    setup_s = []

    def build():
        t0 = clock()
        state = wl.setup()
        setup_s.append(clock() - t0)
        return state

    t0 = clock()
    wl.setup()   # not timed: it pays for lazy imports
    print("# %s: first build %.3f s (untimed)" % (name, clock() - t0))
    for _ in range(SETUP_BEFORE):
        build()
    if trace:
        return traced_pass(name, seed, wl, rng, ops, build())

    verdicts = []
    while len(verdicts) < wl.min_rounds or sum(verdicts) + verdicts[-1] <= seconds:
        state = build()
        spec = wl.inputs(rng)
        t0 = clock()
        out = wl.round(state, spec, ops)
        verdicts.append(clock() - t0)
        ops.problems += wl.check(state, spec, out)
        del state, spec, out
    for _ in range(SETUP_AFTER):
        build()
    if name == "session":
        print("# session: %d rounds, %d queries, %d of %d operands repeat earlier ones (%.1f%%)"
              % (len(verdicts), len(ops.query_ms), wl.repeats, wl.operands,
                 100.0 * wl.repeats / wl.operands))
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "verdict_s": (statistics.median(verdicts), "s"),
        "query_p50_ms": (quantile(ops.query_ms, 0.5), "ms"),
        "query_tail_ms": (quantile(ops.query_ms, TAIL_PERCENTILE[name] / 100), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return ops, metrics


def traced_pass(name, seed, wl, rng, ops, state):
    """One round untraced, then the same round traced on a fresh build."""
    import tracer

    spec = wl.inputs(rng)
    t0 = clock()
    out = wl.round(state, spec, ops)
    untraced = clock() - t0
    ops.problems += wl.check(state, spec, out)
    with tracer.Tracer() as tr:
        state = wl.setup()
        t0 = clock()
        out = wl.round(state, spec, ops)
        traced = clock() - t0
    ops.problems += wl.check(state, spec, out)
    metrics = tr.metrics()
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    OUT.mkdir(exist_ok=True)
    with open(OUT / ("trace-%s-%d.json" % (name, seed)), "w") as fh:
        json.dump({"workload": name, "seed": seed, "untraced_s": untraced,
                   "traced_s": traced, **tr.trace_document()}, fh)
    return ops, metrics


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("perfbench: workload %s failed (exit %d)" % (name, proc.returncode),
                  file=sys.stderr)
            status = 1
            continue
        for line in lines[:-1]:
            print(line)
        print(json.dumps({"workload": name, **json.loads(lines[-1])}))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all three, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    load_engine()
    ops, metrics = measure(args.workload, args.seed, args.seconds, args.trace)
    for problem in ops.problems[:20]:
        print("check failed: %s" % problem, file=sys.stderr)
    print(json.dumps({
        "correct": not ops.problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
