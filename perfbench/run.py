#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload oltp_skewed --seed 1 --seconds 5 --trace 0

The engine and the benchmark program are compiled from source into
.bench_build/ (see perfbench/CMakeLists.txt); the first run builds, later runs
reuse the build. Each run gets a fresh scratch directory under .bench_build/
for its stores, deleted when the run ends. The last line of stdout is the
JSON result, after a readable report; build and progress output go to stderr.
With --trace 1 the span log is kept in .bench_build/traces/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("oltp_skewed", "htap_scan", "durable_drift")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join("src", "engine", "casper_engine.h")):
        fail("run from the repository root: src/engine/casper_engine.h not found")
    # The compiler's scratch files stay inside the checkout too.
    tmp_dir = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    binary = build()
    work_dir = os.path.join(".bench_build", f"run-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.trace:
        trace_dir = os.path.join(".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
