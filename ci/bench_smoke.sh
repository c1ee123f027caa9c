#!/usr/bin/env bash
# Fast sanity pass over the kernel microbenchmarks (ctest target
# bench.smoke): runs the SpMV/SpMM reference + compiled pairs on a tiny
# surrogate, emits BENCH_kernels.json, and validates the JSON shape —
# all four kernel records present with positive timings and the compiled
# entries carrying speedup_vs_reference. Keeps the --json plumbing and the
# compiled benches from silently rotting without paying for a full
# benchmark run in the plain suite.
set -euo pipefail

BIN=${1:?usage: bench_smoke.sh <bench_micro_kernels binary> [out.json]}
OUT=${2:-BENCH_kernels.json}

"$BIN" --scale=0.002 --json="$OUT" \
  --benchmark_filter='BM_Spmv|BM_Spmm' --benchmark_min_time=0.01

python3 - "$OUT" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    data = json.load(f)

required = [
    "BM_SpmvIteration",
    "BM_SpmvIterationCompiled",
    "BM_SpmmIteration16",
    "BM_SpmmIteration16Compiled",
]
for name in required:
    assert name in data, f"missing record {name}"
    assert data[name]["ns_per_iteration"] > 0, f"{name}: bad timing"
    assert data[name]["items_per_second"] > 0, f"{name}: bad throughput"
for name in ("BM_SpmvIterationCompiled", "BM_SpmmIteration16Compiled"):
    assert "speedup_vs_reference" in data[name], f"{name}: missing speedup"
# --json implies --counters: every kernel record must carry the telemetry
# counter object with real per-iteration work attributed to it.
for name in required:
    counters = data[name].get("counters")
    assert counters, f"{name}: missing counters object"
    assert counters["edges_traversed"] > 0, f"{name}: no edges counted"
print(f"bench smoke OK: {len(data)} records in {sys.argv[1]}")
EOF
