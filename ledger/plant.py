#!/usr/bin/env python3
"""Shows that every ledger correctness check can fail.

Run from the root of a checkout:

    python3 ledger/plant.py                 # every check on every workload
    python3 ledger/plant.py --workloads template_scale --checks patterns

For each (workload, check) pair that applies, it runs ledger/run.py with
--plant <check>, which makes that one check expect a wrong value (a count
one higher, an extra event id, or the opposite yes/no answer). The run must
report "correct": false and exit 1; a run that passes means the check cannot
catch a wrong answer. Exit status is non-zero when any planted run passes.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

ALL = ("trace_stream", "template_scale")
SEQUENCE = ("trace_stream",)
# check -> (workloads it runs on, whether it needs the traced run)
CHECKS = {
    "patterns": (("template_scale",), 0),
    "v2_patterns": (ALL, 0),
    "v2_sequence": (ALL, 0),
    "unparsed_training": (ALL, 0),
    "ids_1p": (SEQUENCE, 0),
    "ids_4p": (SEQUENCE, 0),
    "ids_paced": (SEQUENCE, 0),
    "unparsed": (ALL, 0),
    "data_parsed": (ALL, 0),
    "probe_quiet": (ALL, 0),
    "archived": (ALL, 0),
    "update_probe": (ALL, 0),
    "replay_ok": (ALL, 0),
    "replay_union": (ALL, 0),
    "query_count": (ALL, 0),
    "fetch_count": (ALL, 0),
    "ladder_timestamps": (ALL, 1),
    "ladder_parsed": (ALL, 1),
    "ladder_wire": (ALL, 1),
    "ladder_poll": (ALL, 1),
    "ladder_engine": (ALL, 1),
    "ladder_flush": (ALL, 1),
    "ladder_compact": (ALL, 1),
    "ladder_compacted": (ALL, 1),
    "ladder_segments": (ALL, 1),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(ALL))
    ap.add_argument("--checks", default=",".join(CHECKS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    status = 0
    for check in args.checks.split(","):
        applies, trace = CHECKS[check]
        for workload in args.workloads.split(","):
            if workload not in applies:
                continue
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", "1", "--trace", str(trace), "--plant", check]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            caught = (proc.returncode == 1 and result is not None and
                      result["correct"] is False and
                      ("CHECK FAILED " + check) in proc.stderr)
            if not caught:
                status = 1
            print("%-18s %-15s %s" % (check, workload,
                                       "fails as it should" if caught else
                                       "NOT CAUGHT (exit %d)" %
                                       proc.returncode))
            sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
