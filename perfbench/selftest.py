#!/usr/bin/env python3
"""Work-count self-test: run a reduced pass of each workload twice, each in a
fresh process with the same seed, and require identical work counts and
best_speedup, correct outputs and no failed operations.

    python3 perfbench/selftest.py [--workloads a,b] [--rounds 2] [--seed 7]

Nondeterministic work (a coalescing race, a search that depends on timing)
fails this test instead of showing up as noise in the benchmark.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = "search_passbound,search_simbound,serve_tcp"


def reduced_run(workload, seed, rounds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "0",
           "--rounds", str(rounds)]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if res.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {res.returncode}")
    lines = res.stdout.rstrip("\n").split("\n")
    work = next(l for l in lines if l.startswith("work "))
    return json.loads(work[len("work "):]), json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=WORKLOADS)
    ap.add_argument("--rounds", type=int, default=2)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        (work_a, res_a), (work_b, res_b) = (
            reduced_run(workload, args.seed, args.rounds) for _ in range(2))
        problems = []
        if work_a != work_b:
            problems.append(f"work counts differ: {work_a} vs {work_b}")
        speed_a = res_a["metrics"]["best_speedup"]["value"]
        speed_b = res_b["metrics"]["best_speedup"]["value"]
        if speed_a != speed_b:
            problems.append(f"best_speedup differs: {speed_a} vs {speed_b}")
        for res in (res_a, res_b):
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"correct={res['correct']} failed={res['failed']}")
        print(f"{workload}: {'FAIL' if problems else 'PASS'} work={work_a} "
              f"best_speedup={speed_a}")
        for p in problems:
            print(f"  {p}")
        ok = ok and not problems
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
