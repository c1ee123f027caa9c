#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload disjoint --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The library and the pmpr_perfbench binary
are built with CMake into $CARGO_TARGET_DIR (default .bench_build) under the
checkout; build output goes to stderr. The binary's stdout is passed through, so the
last line printed is the result JSON. With --trace 1 the spans of the traced
run are written to <build dir>/spans-<workload>.json. Any argument this
script does not know is handed to the binary unchanged (the self-test uses
--scale and --perturb-window).
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tree = os.path.join(build, "perfbench")
    spill = os.path.join(build, "spill")
    os.makedirs(spill, exist_ok=True)
    # A paged run deletes its store file on exit; a killed one cannot.
    for name in os.listdir(spill):
        os.remove(os.path.join(spill, name))
    jobs = str(len(os.sched_getaffinity(0)))
    for cmd in (
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", tree,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", tree, "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    cmd = [os.path.join(tree, "pmpr_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spill-dir", spill]
    if args.trace:
        cmd += ["--spans", os.path.join(build, "spans-%s.json" % args.workload)]
    try:
        return subprocess.run(cmd + extra, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
