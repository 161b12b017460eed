#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload zoo_grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest               # the benchmark's own tests
    python3 perfbench/run.py --record --workload W    # expected-result lines

Run from the root of a checkout. The build goes to .bench_build/perfbench;
progress goes to stderr and the last stdout line is the JSON result.
"""
import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("zoo_grid", "deep_stack", "wide_space", "serve_mix")


def build(target):
    """Configures (once) and builds `target`; False on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if rc != 0:
            return False
    rc = subprocess.call(
        ["cmake", "--build", BUILD_DIR, "--target", target, "-j",
         str(min(4, os.cpu_count() or 1))],
        stdout=sys.stderr)
    return rc == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    expected = os.path.join(BENCH_DIR, "expected.txt")

    if args.selftest:
        if not build("perfbench_tests"):
            return 1
        return subprocess.call(
            [os.path.join(BUILD_DIR, "perfbench_tests"), "--expected", expected])

    if args.workload is None:
        parser.error("--workload is required")
    if not build("perfbench"):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--expected", expected]
    if args.record:
        cmd.append("--record")
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
