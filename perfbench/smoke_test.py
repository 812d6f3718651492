#!/usr/bin/env python3
"""Smoke test for the platform benchmark.

Runs every workload in BENCHMARK.json once at a tiny input scale, untraced
and traced, and checks that the result line is well formed, that the run
was correct, and that every end-to-end (untraced) and per-layer (traced)
metric prints with the unit BENCHMARK.json declares. Run from the
repository root:

  python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.05"


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", SCALE]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None, f"exit {p.returncode}: {p.stderr[-2000:]}"
    try:
        return json.loads(lines[-1]), ""
    except json.JSONDecodeError as e:
        return None, f"last line is not JSON ({e}): {lines[-1][:200]}"


def check(result, declared):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted < 1")
    if result.get("failed") != 0:
        errors.append(f"failed = {result.get('failed')}")
    metrics = result.get("metrics", {})
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"missing {m['name']}")
        elif got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            errors.append(f"{m['name']}: {got}")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        errors.append(f"undeclared metrics {sorted(extra)}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, err = run(w["name"], trace)
            errors = [err] if result is None else check(result, bench[key])
            status = "ok" if not errors else "FAIL"
            print(f"{w['name']:20s} trace={trace} {status}")
            for e in errors:
                print(f"  {e}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
