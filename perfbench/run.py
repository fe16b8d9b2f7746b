#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload serve_hits --seed 1 --seconds 30 --trace 0

The C++ benchmark program (perfbench/*.cpp) is configured and built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under the
repository root; the build is incremental, so only the first run pays
for it. Build output goes to stderr; the program's report goes to stdout
and ends with one JSON result line. The exit code is the program's, or 1
when the build fails.
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(build_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench"), *sys.argv[1:],
               "--work-dir", work_dir]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
