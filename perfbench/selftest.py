#!/usr/bin/env python3
"""Shows that the benchmark's layout check can fail.

Run from the repository root:

    python3 perfbench/selftest.py

Every set-up Open of a run must build the same layout (the same
LayoutFingerprint); a run where they differ reports `correct: false`. The test
makes two short runs of durable_drift: one as the benchmark runs, which must
pass, and one with --vary-last-open 1, which gives the last Open other planner
costs and so another layout, and must fail. It exits with 1 if either verdict
is wrong.
"""

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def bench(binary, extra):
    work_dir = os.path.join(".bench_build", f"selftest-{os.getpid()}")
    cmd = [binary, "--workload", "durable_drift", "--seed", "1", "--seconds", "1",
           "--trace", "0", "--work-dir", work_dir] + extra
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=run.RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        run.fail(f"{' '.join(cmd)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.rstrip("\n").splitlines()[-1]), proc.stderr


def main():
    binary = run.build()
    same, _ = bench(binary, [])
    varied, log = bench(binary, ["--vary-last-open", "1"])
    ok = True
    if not same["correct"] or same["failed"] != 0:
        print("FAIL: the unchanged run reports failures", file=sys.stderr)
        ok = False
    if varied["correct"] or "built layout" not in log:
        print("FAIL: a differing layout went unreported", file=sys.stderr)
        ok = False
    print(f"unchanged: correct={same['correct']} failed={same['failed']}; "
          f"varied: correct={varied['correct']} failed={varied['failed']}")
    print("PASS" if ok else "FAIL")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
