// parallel_for / parallel_reduce over index ranges, built on the
// work-stealing ThreadPool.
//
// The range form `parallel_for_range` hands each leaf a contiguous
// [lo, hi) chunk. Which thread runs a leaf is up to the stealing, so no
// result may depend on it: parallel_reduce combines its partials along the
// fixed split tree, left before right, and the postmortem runner carries
// partial initialization inside one task per part rather than across chunks.
#pragma once

#include <cstddef>
#include <utility>

#include "par/partitioner.hpp"
#include "par/thread_pool.hpp"

namespace pmpr::par {

/// Execution options for parallel loops.
struct ForOptions {
  Partitioner partitioner = Partitioner::kAuto;
  std::size_t grain = 1;
  /// Pool to run on; nullptr selects ThreadPool::global().
  ThreadPool* pool = nullptr;
};

namespace detail {

/// Recursive binary splitting: peel off the right half as a stealable task,
/// keep the left half hot on the current thread (mirrors TBB's range
/// splitting, preserving left-to-right order on the owning thread).
template <typename Body>
void run_split(ThreadPool& pool, WaitGroup& wg, std::size_t lo, std::size_t hi,
               std::size_t grain, const Body& body) {
  while (hi - lo > grain) {
    const std::size_t mid = lo + (hi - lo) / 2;
    wg.add(1);
    pool.submit(
        [&pool, &wg, mid, hi, grain, &body] {
          run_split(pool, wg, mid, hi, grain, body);
        },
        wg);
    hi = mid;
  }
  body(lo, hi);
}

/// The reduction over [lo, hi) along run_split's tree: the right half is a
/// stealable task, the left half runs here, and once both are done the
/// partials combine left before right. The tree, and so the combine order,
/// depends only on the range and the grain.
template <typename T, typename Map, typename Combine>
T reduce_split(ThreadPool& pool, std::size_t lo, std::size_t hi,
               std::size_t grain, const Map& map, const Combine& combine) {
  if (hi - lo <= grain) return map(lo, hi);
  const std::size_t mid = lo + (hi - lo) / 2;
  T right{};
  WaitGroup wg;
  wg.add(1);
  pool.submit(
      [&] { right = reduce_split<T>(pool, mid, hi, grain, map, combine); },
      wg);
  T left{};
  try {
    left = reduce_split<T>(pool, lo, mid, grain, map, combine);
  } catch (...) {
    pool.wait(wg);  // the task refers to this frame
    throw;
  }
  pool.wait(wg);
  return combine(std::move(left), std::move(right));
}

}  // namespace detail

/// Runs `body(lo, hi)` over disjoint chunks covering [begin, end).
/// Blocks until all chunks complete. Safe to nest.
template <typename Body>
void parallel_for_range(std::size_t begin, std::size_t end,
                        const ForOptions& opts, Body&& body) {
  if (begin >= end) return;
  ThreadPool& pool = opts.pool != nullptr ? *opts.pool : ThreadPool::global();
  const std::size_t n = end - begin;
  const std::size_t grain =
      effective_grain(opts.partitioner, n, opts.grain, pool.num_threads());
  if (n <= grain || pool.num_threads() == 1) {
    // Fast path: no profitable parallelism. (A 1-thread pool still runs
    // correctly through the task path; we just skip the overhead.)
    body(begin, end);
    return;
  }
  WaitGroup wg;
  wg.add(1);
  pool.submit(
      [&pool, &wg, begin, end, grain, &body] {
        detail::run_split(pool, wg, begin, end, grain, body);
      },
      wg);
  pool.wait(wg);
}

/// parallel_for_range under `*opts`, or one `body(begin, end)` call on
/// this thread when `opts` is null (a loop that runs serially because an
/// outer loop already holds the pool).
template <typename Body>
void maybe_parallel_for_range(std::size_t begin, std::size_t end,
                              const ForOptions* opts, Body&& body) {
  if (opts != nullptr) {
    parallel_for_range(begin, end, *opts, body);
  } else if (begin < end) {
    body(begin, end);
  }
}

/// Runs `body(i)` for each i in [begin, end).
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, const ForOptions& opts,
                  Body&& body) {
  parallel_for_range(begin, end, opts, [&body](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) body(i);
  });
}

/// Parallel reduction: `map(lo, hi)` produces a partial result per leaf,
/// `combine(a, b)` merges two adjacent partials, a before b. The leaves are
/// parallel_for_range's chunks under the same options, and so is the
/// 1-thread / single-chunk shortcut (one map(begin, end) call). Partials
/// combine pairwise up the split tree, in parallel, and the result is
/// combine(identity, tree), so an empty range returns `identity` unchanged.
/// Which thread ran which leaf never reaches the result: floating-point
/// sums are bit-reproducible for a given pool size, partitioner and grain.
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t begin, std::size_t end, T identity,
                  const ForOptions& opts, Map&& map, Combine&& combine) {
  if (begin >= end) return identity;
  ThreadPool& pool = opts.pool != nullptr ? *opts.pool : ThreadPool::global();
  const std::size_t n = end - begin;
  const std::size_t grain =
      effective_grain(opts.partitioner, n, opts.grain, pool.num_threads());
  if (n <= grain || pool.num_threads() == 1) {
    return combine(std::move(identity), map(begin, end));
  }
  T tree = detail::reduce_split<T>(pool, begin, end, grain, map, combine);
  return combine(std::move(identity), std::move(tree));
}

}  // namespace pmpr::par
