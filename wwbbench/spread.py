#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 wwbbench/spread.py --workload serve --seeds 1-10 [--trace 1] [--out runs.jsonl]

For every metric it prints the median of the runs and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json.
Each run's result line is appended to --out when given, so two sets of
runs can be compared later with --compare A.jsonl B.jsonl, and the
tracing overhead read with --overhead UNTRACED.jsonl TRACED.jsonl: for
every end-to-end metric, the median of the traced runs' traced.<metric>
minus the median of the untraced runs' <metric>.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def summarize(runs, bounds):
    names = sorted({n for r in runs for n in r["metrics"]})
    med = {}
    print(f"{'metric':32} {'median':>14} {'iqr/med':>8} {'bound':>6}  n")
    for n in names:
        vals = [r["metrics"][n]["value"] for r in runs if n in r["metrics"]]
        m = statistics.median(vals)
        med[n] = m
        spread = float("nan")
        if len(vals) >= 2 and m:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / abs(m)
        b = bounds.get(n, "")
        print(f"{n:32} {m:14.6g} {spread:8.4f} {b!s:>6}  {len(vals)}")
    return med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    ap.add_argument("--overhead", nargs=2, metavar=("UNTRACED", "TRACED"))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    if args.compare:
        a, b = (summarize(load(p), bounds) for p in args.compare)
        print(f"\n{'metric':32} {'worse by':>9} {'bound':>6}")
        for n in sorted(set(a) & set(b) & set(bounds)):
            if not a[n]:
                continue
            worse = (b[n] - a[n]) / abs(a[n])
            if better[n] == "higher":
                worse = -worse
            print(f"{n:32} {worse:9.4f} {bounds[n]:6}")
        return

    if args.overhead:
        untraced, traced = (load(p) for p in args.overhead)
        print(f"{'metric':32} {'untraced':>14} {'traced':>14} {'overhead':>12} {'share':>8}")
        for m in bench["end_to_end"]:
            n = m["name"]
            u = statistics.median(r["metrics"][n]["value"] for r in untraced)
            t = statistics.median(r["metrics"]["traced." + n]["value"] for r in traced)
            print(f"{n:32} {u:14.6g} {t:14.6g} {t - u:12.4g} {(t - u) / u:8.4f}")
        return

    seconds = args.seconds or str(bench["run_seconds"])
    runs = []
    for s in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(s),
                                  "--seconds", seconds, "--trace", args.trace]
        t0 = time.time()
        p = subprocess.run(cmd, capture_output=True, text=True)
        took = time.time() - t0
        if p.returncode != 0:
            sys.stderr.write(p.stderr[-2000:])
            sys.exit(f"seed {s}: exit {p.returncode}")
        res = json.loads(p.stdout.strip().splitlines()[-1])
        runs.append(res)
        print(f"seed {s}: {took:.1f}s correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              file=sys.stderr)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(res) + "\n")
    summarize(runs, bounds)


if __name__ == "__main__":
    main()
