#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

Run from the root of a lamp checkout:

    python3 perfbench/tests/selftest.py

Runs every workload of BENCHMARK.json at a tiny input size, twice
untraced and once traced, and checks that

  * the last line of output is the result object, with exactly the keys
    correct, attempted, failed and metrics;
  * every metric BENCHMARK.json names for the mode is emitted exactly
    once, with its declared unit, and nothing else;
  * every answer was right: correct is true and failed (so error_rate)
    is 0;
  * max_load and total_load are identical across the two untraced runs.

Load values are never pinned, so a change to an algorithm's load moves
the figures without editing this test.
"""
import json
import os
import subprocess
import sys

SECONDS = "2"


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace), "--size", "tiny"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload}: no output (exit {p.returncode})\n{p.stderr}")
    mismatches = [l for l in lines if l.startswith("MISMATCH")]
    if mismatches:
        raise AssertionError(f"{workload}: " + "; ".join(mismatches))
    if p.returncode != 0:
        raise AssertionError(f"{workload}: exit {p.returncode}\n{p.stderr}")

    def unique(pairs):
        keys = [k for k, _ in pairs]
        dup = {k for k in keys if keys.count(k) > 1}
        if dup:
            raise AssertionError(f"{workload}: keys emitted twice: {sorted(dup)}")
        return dict(pairs)

    return json.loads(lines[-1], object_pairs_hook=unique)


def check(workload, result, specs):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        raise AssertionError(f"{workload}: correct={result['correct']} "
                             f"failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise AssertionError(f"{workload}: attempted={result['attempted']}")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    if set(metrics) != set(want):
        raise AssertionError(
            f"{workload}: missing {sorted(set(want) - set(metrics))}, "
            f"unexpected {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        m = metrics[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            raise AssertionError(f"{workload}: {name} = {m}, unit should be {unit}")
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{workload}: {name} is not a number")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = 0
    for w in bench["workloads"]:
        name = w["name"]
        try:
            first = run(name, 1, 0)
            second = run(name, 1, 0)
            for r in (first, second):
                check(name, r, bench["end_to_end"])
            for load in ("max_load", "total_load"):
                a = first["metrics"][load]["value"]
                b = second["metrics"][load]["value"]
                if a != b:
                    raise AssertionError(f"{name}: {load} {a} then {b}")
            check(name, run(name, 1, 1), bench["per_layer"])
            print(f"ok   {name}")
        except (AssertionError, subprocess.TimeoutExpired) as e:
            failures += 1
            print(f"FAIL {e}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
