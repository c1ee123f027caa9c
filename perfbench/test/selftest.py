#!/usr/bin/env python3
"""Self-test of the repository benchmark on tiny inputs.

    python3 perfbench/test/selftest.py

Run from the root of a checkout. For every workload in BENCHMARK.json, and
for overlap and disjoint, it runs perfbench/run.py at a tiny scale, once
end-to-end (--trace 0) and once traced (--trace 1), and checks that

  * the last stdout line is the result object with exactly the keys
    correct / attempted / failed / metrics;
  * every end-to-end (or per-layer) metric is emitted with its declared
    unit and a finite value;
  * no checked window missed the offline reference (wrong_window_frac 0).

Then the negative test: a sink that scales one checked window's ranks must
make the check report that window as wrong.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
TINY = ["--scale", "0.05"]


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace)] + TINY + list(extra)
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd), out.returncode,
                                                     out.stderr[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_shape(result, declared, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert isinstance(result["failed"], int), label
    names = [m["name"] for m in declared]
    assert sorted(result["metrics"]) == sorted(names), (label, sorted(result["metrics"]))
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (label, m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), \
            (label, m["name"], got["value"])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # overlap and disjoint are not gated in BENCHMARK.json (see README.md)
    # but stay runnable, so they are tested here too.
    names = [w["name"] for w in bench["workloads"]]
    names += [n for n in ("overlap", "disjoint") if n not in names]
    failures = 0
    for name in names:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = "%s trace=%d" % (name, trace)
            try:
                r = run(name, trace)
                check_shape(r, declared, label)
                assert r["correct"] and r["failed"] == 0, (label, r["failed"], r["attempted"])
                print("ok   %s (%d windows checked)" % (label, r["attempted"]))
            except AssertionError as e:
                failures += 1
                print("FAIL %s: %s" % (label, e))

    # Window 0 is always among the checked windows (0, k, 2k, ...).
    for trace in (0, 1):
        label = "negative trace=%d" % trace
        try:
            r = run("overlap", trace, ["--perturb-window", "0"])
            assert not r["correct"] and r["failed"] > 0, (label, r)
            print("ok   %s (wrong_window_frac %.4f)" % (label, r["failed"] / r["attempted"]))
        except AssertionError as e:
            failures += 1
            print("FAIL %s: %s" % (label, e))
    print("%d failure(s)" % failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
