#!/usr/bin/env python3
"""EGACS graph-suite benchmark.

Builds the program through the repository's own CMake project (default
options), generates the workload's graph from the seed, runs the ten kernels
and prints one JSON result as the last line of standard output:

    python3 perfbench/run.py --workload rmat-t4 --seed 1 --seconds 10 --trace 0

--trace 0 gives the end-to-end metrics of an untraced, uncounted run;
--trace 1 gives the per-layer metrics of a separate traced and counted run,
also written with its spans to .perfbench/layers/<workload>-<seed>.json.
Build trees, inputs and layer files live under .perfbench/ at the repository
root.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
BUILD = os.path.join(WORK, "build")
SUITE = os.path.join(BUILD, "egacs_suite")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def call(args, timeout, **kwargs):
    """Runs args with stdout sent to stderr unless captured; returns the
    CompletedProcess or exits when the command fails."""
    kwargs.setdefault("stdout", sys.stderr)
    try:
        done = subprocess.run(args, timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(args))
    if done.returncode != 0:
        fail("exit code %d: %s" % (done.returncode, " ".join(args)))
    return done


def build():
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("no EGACS sources next to perfbench/ (missing %s)" % need)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        call(["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    call(["cmake", "--build", BUILD, "--target", "egacs_suite", "-j", jobs],
         timeout=840)


def workloads():
    """The workload names BENCHMARK.json lists; egacs_suite defines them."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return [w["name"] for w in json.load(f)["workloads"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail("cannot read the workloads from BENCHMARK.json: %s" % e)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads())
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    # The output checks must reject hand-corrupted outputs before they are
    # trusted with the program's.
    call([SUITE, "selftest"], timeout=60)

    os.makedirs(os.path.join(WORK, "inputs"), exist_ok=True)
    name = "%s-%d" % (args.workload, args.seed)
    graph = os.path.join(WORK, "inputs", name + ".gr")
    call([SUITE, "gen", "--workload", args.workload, "--seed",
          str(args.seed), "--out", graph + ".tmp"], timeout=120)
    os.replace(graph + ".tmp", graph)

    cmd = [SUITE, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--input", graph, "--seconds", str(args.seconds)]
    if args.trace:
        os.makedirs(os.path.join(WORK, "layers"), exist_ok=True)
        cmd += ["--layers", os.path.join(WORK, "layers", name + ".json")]
    try:
        done = call(cmd, timeout=args.seconds + 120, stdout=subprocess.PIPE,
                    text=True)
    finally:
        os.remove(graph)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or "metrics" not in result:
        fail("no result line from egacs_suite")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
