#!/usr/bin/env python3
"""Builds the perfbench program from the repository sources and runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR when set, else to .bench_build, both
relative to the repository root.  Build output goes to stderr, so the last
line of stdout is the program's JSON result.  Exits non-zero, printing no
result, when the repository sources are missing or the build fails.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build(build_dir):
    """Configures (once) and builds the program; returns its path or None."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=False)
        if configure.returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    compile_ = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=False)
    if compile_.returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: repository sources not found ({needed} is "
                  f"missing under {ROOT})", file=sys.stderr)
            return 2
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    out_dir = os.path.join(build_dir, "perfbench-out")
    result = subprocess.run([binary, *sys.argv[1:], "--out", out_dir],
                            check=False)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
