#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark binary and the critique
library are built with CMake into .bench_build/perfbench (configured once,
rebuilt incrementally); build output goes to stderr so that the last line
of stdout is the JSON result.  Scratch files (WAL copies, span files) go
to .bench_build/run.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "run")
# A run measures for --seconds (at most 60) plus one round; a stuck run is
# stopped well before any caller gives up on it.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("CMakeLists.txt", os.path.join("src", "critique")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s here: run from a checkout of the repository" % need)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench")] + sys.argv[1:] + ["--out-dir", OUT]
    try:
        code = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
