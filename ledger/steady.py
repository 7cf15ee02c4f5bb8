#!/usr/bin/env python3
"""Runs ledger workloads repeatedly and reports how steady each metric is.

Run from the root of a checkout:

    python3 ledger/steady.py --runs 10                      # every workload
    python3 ledger/steady.py --runs 5 --workloads template_scale
    python3 ledger/steady.py --runs 10 --sets 2             # two sets of runs

Each run is `ledger/run.py --workload W --seed S --seconds <run_seconds>`
with a different seed per run (seed-base, seed-base+1, ...). For every
end-to-end metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), the spread (q3 - q1) / median and that
spread as a share of the metric's bound in BENCHMARK.json ("ok" below a
third of the bound, "WIDE" above the bound). With --sets 2 a second set runs
on fresh seeds and the second median is compared with the first: "worse"
when it is worse by more than the bound. The share of failed operations must
be identical in every run. Raw results are kept in
.bench_build/ledger-steady/<workload>.json. Exit status is non-zero when a
run fails, a spread exceeds its bound, a second median is worse than the
bound allows, or failed shares differ.

setup_s is the one exception to the spread gate: each run times a single
cold set-up from process start (a second set-up in the same process would
be warm and measure something else), so its spread is the run-to-run noise
of one sample. It is printed, marked "one sample per run", and gated only by
the comparison of the two sets' medians.
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
OUT = os.path.join(ROOT, ".bench_build", "ledger-steady")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(name, metric_specs, results):
    worst = 0.0
    print("\n%s (%d runs)" % (name, len(results)))
    print("  %-22s %12s %12s %12s %8s %8s" %
          ("metric", "q1", "median", "q3", "spread", "/bound"))
    medians = {}
    for spec in metric_specs:
        values = [r["metrics"][spec["name"]]["value"] for r in results]
        q1, _, q3 = quartiles(values)
        med = statistics.median(values)
        medians[spec["name"]] = med
        spread = (q3 - q1) / med if med else float("inf")
        share = spread / spec["bound"]
        if spec["name"] == "setup_s":
            verdict = "one sample per run: median-gated only"
        else:
            worst = max(worst, share)
            verdict = "ok" if share < 1 / 3 else ("WIDE" if share > 1 else "")
        print("  %-22s %12.4f %12.4f %12.4f %8.4f %8.2f %s" %
              (spec["name"], q1, med, q3, spread, share, verdict))
    return medians, worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="",
                    help="comma-separated names (default: all)")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    specs = bench["end_to_end"] if args.trace == 0 else [
        dict(m, bound=1.0) for m in bench["per_layer"]]
    os.makedirs(OUT, exist_ok=True)

    status = 0
    for name in names:
        sets = []
        for s in range(args.sets):
            base = args.seed_base + s * 1000
            results = []
            for i in range(args.runs):
                r = run_once(name, base + i, seconds, args.trace)
                if r is None or not r["correct"]:
                    print("%s seed %d: run failed" % (name, base + i))
                    status = 1
                    continue
                results.append(r)
            if not results:
                continue
            shares = {(r["failed"], r["attempted"]) for r in results}
            exact = {f / a for f, a in shares}
            walls = [r["wall_s"] for r in results]
            print("\n%s set %d: failed share per run %s; wall %.1f-%.1f s" %
                  (name, s + 1, sorted(exact), min(walls), max(walls)))
            if len(exact) != 1:
                status = 1
            medians, worst = summarize("%s set %d" % (name, s + 1), specs,
                                       results)
            if args.trace == 0 and worst > 1:
                status = 1
            sets.append((medians, results))
        with open(os.path.join(OUT, name + ".json"), "w") as f:
            json.dump([r for _, rs in sets for r in rs], f)
        if len(sets) == 2:
            print("\n%s: second median against first" % name)
            for spec in specs:
                a = sets[0][0][spec["name"]]
                b = sets[1][0][spec["name"]]
                change = (b - a) / a if a else 0.0
                worse = change if spec["better"] == "lower" else -change
                flag = "worse" if worse > spec["bound"] else ""
                if flag:
                    status = 1
                print("  %-22s %12.4f %12.4f %+8.4f %s" %
                      (spec["name"], a, b, change, flag))
    return status


if __name__ == "__main__":
    sys.exit(main())
