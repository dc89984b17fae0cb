#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds perfbench/ (the library from src/ plus the harness) in Release
mode under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
later runs only rebuild what changed. The harness output goes to stdout
unchanged, and its last line is the JSON result
{"correct", "attempted", "failed", "metrics"}. Build logs and
diagnostics go to stderr. Exits non-zero, without a result line, when
the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(directory):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", directory, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve_small", "scan_tall", "serve_publish"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    directory = build_dir()
    try:
        build(directory)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("perfbench: build failed: %s" % error)

    command = [os.path.join(directory, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out-dir", directory]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if run.returncode != 0:
        sys.exit("perfbench: run failed with exit code %d" % run.returncode)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("perfbench: malformed result line")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
