#!/usr/bin/env bash
# Sanitizer gate for the correctness-critical layers (DESIGN.md §6).
#
#   1. ASan + UBSan: full test suite. Catches the out-of-bounds writes the
#      loaders/builders are hardened against, plus lifetime bugs in the
#      pointer-rich streaming structures.
#   2. TSan: tests/par + tests/streaming + tests/obs + tests/graph +
#      tests/exec. Gates the hand-rolled work-stealing pool (Chase-Lev
#      deques, sleep/notify protocol), the multi-window build's concurrent
#      parts (each with its own compaction bitmap, nested row sorts), the
#      streaming and postmortem runners' use of the pool (parts side by
#      side, nested kernel loops), and the telemetry layer's per-thread
#      counter blocks / trace buffers under pool churn.
#
# Usage: ci/sanitize.sh [asan|tsan|all]      (default: all)
#
# Environment:
#   PMPR_SANITIZE_JOBS       parallel build/test jobs (default:
#                            CTEST_PARALLEL_LEVEL if set, else nproc — so
#                            `ctest -j N` does not fan out N*nproc jobs when
#                            this runs as the ci.sanitize_smoke target)
#   PMPR_SANITIZE_BUILD_DIR  build-tree root (default: <repo>/build-sanitize)
#
# Build trees are configured at -O1 -g without NDEBUG so PMPR_DCHECKs stay
# live, benches/examples are skipped, and -fno-sanitize-recover turns every
# finding into a test failure. Also registered as the ctest target
# `ci.sanitize_smoke` when CMake runs with -DPMPR_ENABLE_SANITIZE_SMOKE=ON.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${PMPR_SANITIZE_JOBS:-${CTEST_PARALLEL_LEVEL:-$(nproc)}}"
BUILD_ROOT="${PMPR_SANITIZE_BUILD_DIR:-${ROOT}/build-sanitize}"
MODE="${1:-all}"

export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

build_tree() {
  local dir="$1" sanitize="$2"
  mkdir -p "${dir}"
  cmake -S "${ROOT}" -B "${dir}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS_DEBUG="-O1 -g" \
    -DPMPR_SANITIZE="${sanitize}" \
    -DPMPR_WERROR=ON \
    -DPMPR_BUILD_BENCH=OFF \
    -DPMPR_BUILD_EXAMPLES=OFF \
    > "${dir}-configure.log" 2>&1 || {
      cat "${dir}-configure.log"; return 1; }
  cmake --build "${dir}" -j "${JOBS}"
}

run_asan_ubsan() {
  local dir="${BUILD_ROOT}/asan-ubsan"
  echo "=== [1/2] asan+ubsan: configure + build ==="
  build_tree "${dir}" "asan+ubsan"
  echo "=== [1/2] asan+ubsan: full ctest suite ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

run_tsan() {
  local dir="${BUILD_ROOT}/tsan"
  echo "=== [2/2] thread: configure + build ==="
  build_tree "${dir}" "thread"
  echo "=== [2/2] thread: par, streaming, obs, graph, batch-compile, exec ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
    -L '^(par_test|streaming_test|obs_test|graph_test|batch_csr_par_test|exec_test)$'
}

case "${MODE}" in
  asan) run_asan_ubsan ;;
  tsan) run_tsan ;;
  all)
    run_asan_ubsan
    run_tsan
    ;;
  *)
    echo "usage: $0 [asan|tsan|all]" >&2
    exit 2
    ;;
esac

echo "sanitize: all requested gates passed"
