#!/usr/bin/env python3
"""Smoke test of the repo benchmark.

    python3 perfbench/smoke_test.py [--seconds 2]

Runs every workload in BENCHMARK.json, and serve_publish (runnable but
not yet gated), briefly, with two different seeds, in both modes
(--trace 0 and --trace 1), through perfbench/run.py. Each run must print
a result line whose metrics are exactly the ones BENCHMARK.json names
for that mode, each with its unit; whose output checks passed (correct
is true, nothing failed); and whose end-to-end values are all above
zero. Reports every run and exits non-zero if any failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (101, 202)
UNGATED_WORKLOADS = ("serve_publish",)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         cwd=ROOT, timeout=900)
    if run.returncode != 0:
        raise AssertionError("exit code %d" % run.returncode)
    return json.loads(run.stdout.strip().splitlines()[-1])


def check(result, expected, positive):
    if result["correct"] is not True:
        raise AssertionError("output checks failed")
    if result["attempted"] < 1 or result["failed"] != 0:
        raise AssertionError("attempted=%s failed=%s" %
                             (result["attempted"], result["failed"]))
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        raise AssertionError("metrics differ: missing %s, extra %s" % (
            sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit:
            raise AssertionError("%s has unit %s, not %s" %
                                 (name, metrics[name]["unit"], unit))
        if not isinstance(metrics[name]["value"], (int, float)):
            raise AssertionError("%s is not a number" % name)
        if positive and not metrics[name]["value"] > 0:
            raise AssertionError("%s is %s" % (name, metrics[name]["value"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    modes = {0: ({m["name"]: m["unit"] for m in spec["end_to_end"]}, True),
             1: ({m["name"]: m["unit"] for m in spec["per_layer"]}, False)}
    failures = 0
    workloads = [w["name"] for w in spec["workloads"]]
    workloads += [w for w in UNGATED_WORKLOADS if w not in workloads]
    for workload in workloads:
        for seed in SEEDS:
            for trace, (expected, positive) in modes.items():
                label = "%s seed=%d trace=%d" % (workload, seed, trace)
                try:
                    check(run_once(workload, seed, args.seconds, trace),
                          expected, positive)
                    print("ok   " + label, flush=True)
                except (AssertionError, ValueError, IndexError,
                        subprocess.TimeoutExpired) as error:
                    failures += 1
                    print("FAIL %s: %s" % (label, error), flush=True)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
