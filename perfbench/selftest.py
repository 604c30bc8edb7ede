#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark: a short run of every workload,
timed and traced, with every correctness check on.

    python3 perfbench/selftest.py [--seconds 1]

Run from the repository root. For each workload run.py knows (relay too,
though BENCHMARK.json does not gate it) and each --trace value it runs
perfbench/run.py, then requires exit code 0, a parseable JSON last line with
correct=true and failed=0, and exactly the metric names BENCHMARK.json lists
for that mode. Exits 1 when any run failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
from run import WORKLOADS  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    expected = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            problem = None
            if proc.returncode != 0:
                problem = "exit code %d" % proc.returncode
            elif not lines:
                problem = "no output"
            else:
                try:
                    result = json.loads(lines[-1])
                except ValueError:
                    result = None
                    problem = "last line is not JSON"
                if result is not None:
                    metrics = result.get("metrics", {})
                    if set(result) != {"correct", "attempted", "failed", "metrics"}:
                        problem = "result keys %s" % sorted(result)
                    elif result["correct"] is not True or result["failed"] != 0:
                        problem = "correct=%s failed=%s" % (result["correct"], result["failed"])
                    elif result["attempted"] < 1:
                        problem = "nothing attempted"
                    elif sorted(metrics) != sorted(expected[trace]):
                        problem = "metric names differ from BENCHMARK.json: %s" % sorted(
                            set(metrics) ^ set(expected[trace]))
                    elif any(metrics[k]["unit"] != units[k] for k in metrics):
                        problem = "a metric's unit differs from BENCHMARK.json"
            status = "ok" if problem is None else "FAIL (%s)" % problem
            print("selftest %-13s trace=%d %s" % (workload, trace, status), flush=True)
            if problem is not None:
                failures += 1
                sys.stderr.write(proc.stderr[-2000:])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
