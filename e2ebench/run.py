#!/usr/bin/env python3
"""Builds and runs raqlet's end-to-end benchmark.

One run, from the root of a source checkout:

    python3 e2ebench/run.py --workload ldbc-interactive --seed 1 --seconds 30 --trace 0

builds the benchmark binary into .bench_build/ (Release; the first build takes a
minute or two, later runs only check it), runs one process for the
workload, and prints its report. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.

Steadiness report (runs one workload N times, seeds SEED..SEED+N-1, or
SEED N times with --same-seed):

    python3 e2ebench/run.py --workload tc-closure --seed 1 --seconds 30 --trace 0 --repeat 5

Self-test of the digest, the trace fold, the gap check and the oracle:

    python3 e2ebench/run.py --selftest
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2ebench")
# Set-up and the last cycle come on top of --seconds.
SETUP_ALLOWANCE_S = 140


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no raqlet sources (CMakeLists.txt, src/) next to " + HERE)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "e2ebench",
                  "-j", jobs])
    # Keep the compilers' temporary files inside the build directory.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build step failed: " + " ".join(step))


def run_once(workload, seed, seconds, trace, echo):
    """Runs the benchmark binary once; returns its result line as a dict."""
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + SETUP_ALLOWANCE_S)
    except subprocess.TimeoutExpired:
        fail("run timed out: " + " ".join(args))
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    if done.returncode != 0:
        fail("benchmark exited with code %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    result = json.loads(lines[-1])
    result["gaps"] = [line[len("gap-check: "):] for line in lines
                      if line.startswith("gap-check: ")]
    return result


def steadiness(args):
    seeds = [args.seed if args.same_seed else args.seed + i
             for i in range(args.repeat)]
    runs = []
    for seed in seeds:
        result = run_once(args.workload, seed, args.seconds, args.trace,
                          echo=False)
        runs.append(result)
        print("seed %d: correct=%s attempted=%d failed=%d%s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            "".join("\n  gap: " + g for g in result["gaps"])), flush=True)

    print("\n%-30s %12s %12s %12s %9s %9s" % (
        "metric", "median", "q1", "q3", "iqr/med", "worst"))
    unsteady_counts = []
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        worst = max(abs(v - med) for v in values) / med if med else 0.0
        print("%-30s %12.6g %12.6g %12.6g %8.2f%% %8.2f%%  %s" % (
            name, med, q1, q3, 100 * spread, 100 * worst, unit))
        if unit == "count" and len(set(values)) > 1:
            unsteady_counts.append(name)
    flagged = {}
    for r in runs:
        for gap in r["gaps"]:
            metric = gap.split(":")[0]
            flagged[metric] = flagged.get(metric, 0) + 1
    for metric, times in sorted(flagged.items()):
        print("GAP: %s sat between two latency groups in %d of %d runs" % (
            metric, times, len(runs)))
    if args.same_seed and unsteady_counts:
        print("COUNTS DIFFER across runs of one seed: " +
              ", ".join(unsteady_counts))
    failed = sum(r["failed"] for r in runs)
    print("failed ops over all runs: %d" % failed)
    return 0 if failed == 0 and not (args.same_seed and unsteady_counts) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness report over this many runs")
    parser.add_argument("--same-seed", action="store_true",
                        help="with --repeat: reuse --seed for every run")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    build()
    if args.selftest:
        return subprocess.run([BINARY, "--selftest"],
                              timeout=SETUP_ALLOWANCE_S).returncode
    if not args.workload:
        parser.error("--workload is required")
    if args.repeat > 0:
        return steadiness(args)
    run_once(args.workload, args.seed, args.seconds, args.trace, echo=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
