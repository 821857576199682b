#!/usr/bin/env python3
"""Steadiness runner: repeat each workload with different seeds and report,
for every end-to-end metric, its median, quartiles and min/max, and the
spread (q3 - q1) / median against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--seconds S] [--save FILE] [--compare FILE]

--save writes the raw results; --compare FILE checks this set's medians
against a saved set: no metric may be worse by more than its bound, and the
share of failed operations must be identical. Exits 1 when a spread
exceeds its bound, a run is incorrect, the failed share differs between
runs, or a comparison fails.
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


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if res.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {res.returncode}")
    result = json.loads(res.stdout.rstrip("\n").split("\n")[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def worse_by(metric, old, new):
    """Relative worsening of `new` against `old` (negative = better)."""
    if metric["better"] == "lower":
        return (new - old) / old
    return (old - new) / old


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    saved = json.load(open(args.compare)) if args.compare else None
    results, ok = {}, True
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            r = run_once(workload, args.first_seed + i, args.seconds)
            runs.append(r)
            print(f"  {workload} seed={args.first_seed + i} wall={r['wall_s']:.1f}s "
                  f"correct={r['correct']} attempted={r['attempted']} failed={r['failed']}",
                  flush=True)
        results[workload] = runs
        print(f"\n{workload}: {len(runs)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + len(runs) - 1}")
        print(f"  {'metric':<14} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'spread':>8} {'bound':>6}  verdict")
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q3, s = spread(values)
            med = statistics.median(values)
            if s <= m["bound"] / 3:
                verdict = "steady"
            elif s <= m["bound"]:
                verdict = "within bound, above a third of it"
            else:
                verdict = "UNSTEADY"
                ok = False
            if saved and workload in saved:
                old = statistics.median(r["metrics"][name]["value"] for r in saved[workload])
                w = worse_by(m, old, med)
                verdict += f"; vs saved {w:+.2%}"
                if w > m["bound"]:
                    verdict += " REGRESSED"
                    ok = False
            print(f"  {name:<14} {m['unit']:<6} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{min(values):12.4f} {max(values):12.4f} {s:8.2%} {m['bound']:6.2f}  {verdict}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        if saved and workload in saved:
            shares |= {r["failed"] / r["attempted"] for r in saved[workload]}
        print(f"  failed share: {sorted(shares)}")
        if len(shares) != 1:
            ok = False
            print("  FAILED SHARE DIFFERS BETWEEN RUNS")
        if not all(r["correct"] for r in runs):
            ok = False
            print("  SOME RUNS ARE NOT CORRECT")
        print(flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
