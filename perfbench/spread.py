#!/usr/bin/env python3
"""Measures how steady the benchmark is: runs sets of end-to-end runs with
distinct seeds and reports, per workload and metric, each set's median, its
spread (interquartile range over median) and the shift of the last set's
median against the first, next to the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --sets 2 --runs 10
    python3 perfbench/spread.py --workloads rmat-t4 --runs 5 --sets 1

A metric is flagged when a set's spread exceeds a third of its bound, or when
the last set's median is worse than the first's by more than the bound.
setup_s is one cold set-up per run, which no in-run median can steady, so
its spread is flagged only above its whole bound; its median across the runs
is what a comparison uses.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit("run.py failed on %s seed %d" % (workload, seed))
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    # results[set][workload] = list of result objects
    results = [{w: [] for w in workloads} for _ in range(args.sets)]
    seed = args.first_seed
    for s in range(args.sets):
        for _ in range(args.runs):
            for w in workloads:
                results[s][w].append(run_once(w, seed, args.seconds))
                print("set %d %s seed %d done" % (s + 1, w, seed),
                      file=sys.stderr)
            seed += 1

    flagged = 0
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for rs in results for r in rs[w]}
        print("\n%s  failed share per run: %s" % (w, sorted(shares)))
        print("%-14s %6s %s" % ("metric", "bound", "  ".join(
            "median%d  spread%d" % (i + 1, i + 1) for i in range(args.sets)))
            + "   shift")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols, medians = [], []
            for s in range(args.sets):
                values = [r["metrics"][name]["value"] for r in results[s][w]]
                medians.append(statistics.median(values))
                sp = spread(values) if len(values) > 1 else 0.0
                bad = sp > (bound if name == "setup_s" else bound / 3)
                cols.append("%9.4f %7.1f%%%s" % (medians[-1], 100 * sp,
                                                 "!" if bad else " "))
                flagged += bad
            shift = (medians[-1] - medians[0]) / medians[0]
            if m["better"] == "higher":
                shift = -shift
            bad = shift > bound
            flagged += bad
            print("%-14s %6.2f %s %+6.1f%%%s" % (name, bound, " ".join(cols),
                                                 100 * shift,
                                                 "!" if bad else ""))
    print("\n%d flagged" % flagged)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
