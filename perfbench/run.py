#!/usr/bin/env python3
"""Build the benchmark from source and run one workload in a fresh process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is its own CMake project
(perfbench/CMakeLists.txt) that compiles the repo's src/ libraries; it is
built into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
The last line of stdout is the result JSON; build output goes to stderr.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure once, then let the build tool bring the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repo sources next to perfbench/ (src/CMakeLists.txt missing)", 2)
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "ilc_perfbench",
                      "-j", jobs])
        for cmd in steps:
            try:
                res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                     timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if res.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "ilc_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=0,
                    help="fixed measured rounds instead of --seconds")
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    workdir = os.path.join(out, "runs", str(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rounds", str(args.rounds),
           "--workdir", workdir]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = res.stdout.rstrip("\n").split("\n")
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        fail(f"benchmark exited with code {res.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(res.stdout)
        fail("benchmark printed no result line")
    sys.stdout.write(res.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
