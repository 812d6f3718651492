#!/usr/bin/env python3
"""Builds and runs the platform benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload sessionize_inc --seed 1 --seconds 30 --trace 0

Every run configures and builds the platform library and the perfbench
binary in .bench_build/perfbench; only the first run in a checkout
compiles everything, later ones rebuild what changed. Build output goes to
stderr, so the last stdout line is the binary's JSON result. The exit code
is the binary's, or 1 when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    # Configuring an existing build directory takes well under a second,
    # and refuses one that was configured for another source tree.
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size multiplier (the smoke test shrinks it)")
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "perfbench"),
           f"--workload={args.workload}",
           f"--seconds={args.seconds}",
           f"--trace={args.trace}",
           f"--scale={args.scale}"]
    if args.seed is not None:
        cmd.append(f"--seed={args.seed}")
    if args.trace:
        cmd.append("--spans_out=" + os.path.join(
            BUILD, f"spans-{args.workload}.tsv"))
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
