#!/usr/bin/env python3
"""Build the benchmark from the sources of this checkout and run it.

    python3 perfbench/run.py --workload warm-run|install|certify \
        --seed N --seconds S --trace 0|1

Run from the root of the checkout. dune builds perfbench/bench.exe (and
the libraries it measures) into _build; the build log goes to stderr, so
the last line on stdout is the benchmark's JSON result. Exits non-zero,
without a result, when the build fails or the run does not finish.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune is not on PATH")


def main():
    try:
        build = subprocess.run(
            dune() + ["build", "--root", ROOT, "./perfbench/bench.exe"],
            cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: build timed out")
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    try:
        run = subprocess.run([exe, "--data", HERE] + sys.argv[1:], cwd=ROOT,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
