#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

    python3 e2ebench/smoke_test.py

Runs every workload (BENCHMARK.json's, and serve-mixed) at tiny size
(--smoke) with --trace 0 and --trace 1 on the default seed, and with
--trace 0 on a second seed. Checks that every run is correct with 0 failed
operations, that the printed metric names and units are exactly those
BENCHMARK.json declares, and that every end-to-end value is positive.
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 20110516
OTHER_SEED = 7
# Workloads run.py accepts that BENCHMARK.json does not list (see README.md).
HAND_WORKLOADS = ("serve-mixed",)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        sys.exit("FAIL %s seed %d trace %d: exit %d\n%s" % (
            workload, seed, trace, out.returncode, out.stderr[-3000:]))
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = 0
    for workload in [w["name"] for w in bench["workloads"]] + list(HAND_WORKLOADS):
        for seed, trace in ((DEFAULT_SEED, 0), (DEFAULT_SEED, 1), (OTHER_SEED, 0)):
            result, lines = run(workload, seed, trace)
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("result keys %s" % sorted(result))
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("correct=%s failed=%s attempted=%s" % (
                    result["correct"], result["failed"], result["attempted"]))
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != declared[trace]:
                problems.append("metric names/units differ from BENCHMARK.json: %s" % sorted(
                    set(printed.items()) ^ set(declared[trace].items())))
            if trace == 0:
                problems += ["%s = %s is not positive" % (name, m["value"])
                             for name, m in result["metrics"].items() if not m["value"] > 0]
            status = "ok  " if not problems else "FAIL"
            print("%s %-13s seed %-9d trace %d  attempted %d" % (
                status, workload, seed, trace, result["attempted"]))
            for problem in problems:
                print("     " + problem)
            if problems:
                failures += 1
                print("\n".join("     | " + line for line in lines if "CHECK FAIL" in line))
    if failures:
        sys.exit("%d smoke run(s) failed" % failures)
    print("all smoke runs passed")


if __name__ == "__main__":
    main()
