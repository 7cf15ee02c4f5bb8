#!/usr/bin/env python3
"""Builds the LogLens ledger benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 ledger/run.py --workload trace_stream --seed 1 --seconds 20 --trace 0

The first run configures and builds ledger/ (which compiles ../src) into
.bench_build/ledger; later runs only re-check the build. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.
Optional: --plant <check> makes one correctness check expect a wrong value
(the run must then report "correct": false and exit 1); see README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
BINARY = os.path.join(BUILD, "ledger_bench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("ledger: no LogLens sources under src/; cannot build",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "ledger_bench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("ledger: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return os.path.isfile(BINARY)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant", default="")
    args = ap.parse_args()

    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.plant:
        cmd += ["--plant", args.plant]
    # The program runs in its shipped configuration: its own tracing switch
    # (LOGLENS_TRACE) is left at the default, whatever the caller's
    # environment says.
    env = {k: v for k, v in os.environ.items() if k != "LOGLENS_TRACE"}
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("ledger: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
