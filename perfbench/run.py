#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The executable is built with dune into .bench_build/ at the repository
root (release profile, shared dune cache off, so nothing is written
outside the checkout). Build output goes to stderr; the benchmark's own
output, whose last line is one JSON object, goes to stdout. Exits nonzero
without a result when the sources it needs are missing or do not build.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}; "
                  "run from a full checkout of the repository", file=sys.stderr)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", TARGET]
    try:
        done = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 2
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return done.returncode or 2
    exe = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "perfbench.exe")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
