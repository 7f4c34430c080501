#!/usr/bin/env python3
"""Builds the synccount benchmark from this checkout and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table_sweep --seed 1 --seconds 12 --trace 0

The benchmark package (perfbench/CMakeLists.txt) compiles the library from
../src and the perfbench binary into .bench_build/ (Release). Build output
goes to stderr; the binary's stdout is passed through, so its last line is
the JSON result. Exits non-zero without a result when the build fails, e.g.
in a directory that holds the benchmark but not the sources it measures.
"""

from __future__ import annotations

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build() -> bool:
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main(argv: list[str]) -> int:
    if not build():
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY, *argv]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
