#!/usr/bin/env python3
"""Smoke self-check of the benchmark: run every workload briefly, untraced
and traced, and check the output against BENCHMARK.json.

    python3 perfbench/smoke.py [--seconds 1]

Run from the repository root. For each run it asserts that the last stdout
line parses, has exactly the keys correct/attempted/failed/metrics, that
the run passed its own output checks, and that every metric BENCHMARK.json
names for that mode is present, finite and carries its unit. Exits 1 on
the first failure.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return f"{where}: exit {done.returncode}: {done.stderr[-2000:]}"
    lines = done.stdout.strip().splitlines()
    if not lines:
        return f"{where}: no output"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return f"{where}: last line is not JSON: {e}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"{where}: unexpected keys {sorted(result)}"
    if result["correct"] is not True:
        return f"{where}: the run's output checks failed: {done.stderr[-2000:]}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1 or \
            not isinstance(result["failed"], int):
        return f"{where}: bad attempted/failed counts"
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        missing = {m["name"] for m in wanted} - set(metrics)
        extra = set(metrics) - {m["name"] for m in wanted}
        return f"{where}: metric set differs: missing {sorted(missing)}, extra {sorted(extra)}"
    for m in wanted:
        got = metrics[m["name"]]
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{where}: {m['name']} is not a finite number: {value!r}"
        if got.get("unit") != m["unit"]:
            return f"{where}: {m['name']} has unit {got.get('unit')!r}, want {m['unit']!r}"
        if not trace and value == 0:
            return f"{where}: end-to-end metric {m['name']} reads 0"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for trace in (0, 1):
            problem = check_run(spec, w["name"], trace, args.seconds)
            if problem:
                print(f"smoke: FAIL {problem}", file=sys.stderr)
                return 1
            print(f"smoke: ok {w['name']} trace={trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
