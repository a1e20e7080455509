#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark binary is built with `cargo build --release --offline`
into $CARGO_TARGET_DIR (default: .bench_build under the current
directory). Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. The exit code is the
benchmark's: 0 only when every correctness check passed. A failed build,
or a run that does not finish within the time limit, exits nonzero
without printing a result.
"""

import os
import subprocess
import sys

# A run is killed after this many seconds: the benchmark's own
# per-replication event budget does not cover campaign points or
# `Runner` replications, so this bounds a runaway there.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(here, "Cargo.toml")],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"benchmark build failed: {err}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return 2

    scratch = os.path.join(target, "perfbench-scratch")
    os.makedirs(scratch, exist_ok=True)
    binary = os.path.join(target, "release", "sda-perfbench")
    with subprocess.Popen([binary, *sys.argv[1:], "--scratch", scratch], env=env) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"benchmark run exceeded {RUN_TIMEOUT_S} s and was stopped",
                  file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
