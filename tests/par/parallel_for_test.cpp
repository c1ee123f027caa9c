#include "par/parallel_for.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <vector>

#include "par/task_group.hpp"

namespace pmpr::par {
namespace {

/// Parameterized over (partitioner, grain): every combination must execute
/// each index exactly once — the core scheduling invariant.
class ParallelForProperty
    : public ::testing::TestWithParam<std::tuple<Partitioner, std::size_t>> {};

TEST_P(ParallelForProperty, EveryIndexExactlyOnce) {
  const auto [partitioner, grain] = GetParam();
  ThreadPool pool(3);
  constexpr std::size_t kN = 10007;  // prime: exercises ragged chunking
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  ForOptions opts{partitioner, grain, &pool};
  parallel_for(0, kN, opts,
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_P(ParallelForProperty, RangeChunksAreDisjointAndCover) {
  const auto [partitioner, grain] = GetParam();
  ThreadPool pool(3);
  constexpr std::size_t kN = 4999;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  std::atomic<std::size_t> chunks{0};
  ForOptions opts{partitioner, grain, &pool};
  parallel_for_range(0, kN, opts, [&](std::size_t lo, std::size_t hi) {
    EXPECT_LT(lo, hi);
    chunks.fetch_add(1);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1);
  EXPECT_GE(chunks.load(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPartitionersAndGrains, ParallelForProperty,
    ::testing::Combine(::testing::Values(Partitioner::kAuto,
                                         Partitioner::kSimple,
                                         Partitioner::kStatic),
                       ::testing::Values(std::size_t{1}, std::size_t{8},
                                         std::size_t{64}, std::size_t{2048},
                                         std::size_t{100000})),
    [](const auto& pinfo) {
      return std::string(to_string(std::get<0>(pinfo.param))) + "_grain" +
             std::to_string(std::get<1>(pinfo.param));
    });

TEST(ParallelFor, EmptyRangeIsNoop) {
  int calls = 0;
  parallel_for_range(5, 5, {}, [&](std::size_t, std::size_t) { ++calls; });
  parallel_for_range(7, 3, {}, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SingleElementRange) {
  std::atomic<int> calls{0};
  parallel_for(0, 1, {}, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, NonZeroBegin) {
  std::mutex m;
  std::set<std::size_t> seen;
  parallel_for(100, 200, {}, [&](std::size_t i) {
    std::lock_guard<std::mutex> lock(m);
    seen.insert(i);
  });
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 100u);
  EXPECT_EQ(*seen.rbegin(), 199u);
}

TEST(ParallelFor, NestedParallelForCompletes) {
  ThreadPool pool(3);
  ForOptions opts{Partitioner::kSimple, 1, &pool};
  std::atomic<int> total{0};
  parallel_for(0, 20, opts, [&](std::size_t) {
    parallel_for(0, 50, opts, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 20 * 50);
}

TEST(ParallelReduce, SumsCorrectly) {
  constexpr std::size_t kN = 100000;
  const std::uint64_t got = parallel_reduce(
      0, kN, std::uint64_t{0}, {},
      [](std::size_t lo, std::size_t hi) {
        std::uint64_t s = 0;
        for (std::size_t i = lo; i < hi; ++i) s += i;
        return s;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(got, static_cast<std::uint64_t>(kN) * (kN - 1) / 2);
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity) {
  const int got = parallel_reduce(
      3, 3, 42, {}, [](std::size_t, std::size_t) { return 0; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(got, 42);
}

TEST(ParallelReduce, WorksUnderAllPartitioners) {
  ThreadPool pool(4);
  for (ThreadPool* const p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (const auto partitioner :
         {Partitioner::kAuto, Partitioner::kSimple, Partitioner::kStatic}) {
      ForOptions opts{partitioner, 8, p};
      const double got = parallel_reduce(
          0, 1000, 0.0, opts,
          [](std::size_t lo, std::size_t hi) {
            return static_cast<double>(hi - lo);
          },
          [](double a, double b) { return a + b; });
      EXPECT_DOUBLE_EQ(got, 1000.0)
          << to_string(partitioner) << (p == nullptr ? " global" : " own");
    }
  }
}

TEST(ParallelReduce, ArrayAccumulator) {
  // The lane-residual use case: a fixed-width array merged element-wise.
  constexpr std::size_t kLanes = 8;
  using Acc = std::array<double, kLanes>;
  constexpr std::size_t kN = 4096;
  ThreadPool pool(3);
  ForOptions opts{Partitioner::kAuto, 16, &pool};
  const Acc got = parallel_reduce(
      0, kN, Acc{}, opts,
      [](std::size_t lo, std::size_t hi) {
        Acc a{};
        for (std::size_t i = lo; i < hi; ++i) a[i % kLanes] += 1.0;
        return a;
      },
      [](Acc a, const Acc& b) {
        for (std::size_t k = 0; k < kLanes; ++k) a[k] += b[k];
        return a;
      });
  for (std::size_t k = 0; k < kLanes; ++k) {
    EXPECT_DOUBLE_EQ(got[k], static_cast<double>(kN / kLanes)) << "lane " << k;
  }
}

TEST(ParallelReduce, NestedInsideParallelFor) {
  // The nested-parallelism path in the runner: a reduce issued from inside
  // a worker of the same pool.
  ThreadPool pool(3);
  ForOptions outer{Partitioner::kSimple, 1, &pool};
  std::vector<std::uint64_t> results(8, 0);
  parallel_for(0, results.size(), outer, [&](std::size_t i) {
    ForOptions inner{Partitioner::kAuto, 16, &pool};
    results[i] = parallel_reduce(
        0, 1000, std::uint64_t{0}, inner,
        [](std::size_t lo, std::size_t hi) {
          return static_cast<std::uint64_t>(hi - lo);
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
  });
  for (const std::uint64_t r : results) EXPECT_EQ(r, 1000u);
}

TEST(ParallelReduce, FoldsLeavesInRangeOrder) {
  // A non-commutative combine (concatenation) sees the leaves left to
  // right, however the pool scheduled them.
  ThreadPool pool(4);
  ForOptions opts{Partitioner::kSimple, 3, &pool};
  const std::vector<std::size_t> got = parallel_reduce(
      0, 1000, std::vector<std::size_t>{}, opts,
      [](std::size_t lo, std::size_t hi) {
        std::vector<std::size_t> v(hi - lo);
        std::iota(v.begin(), v.end(), lo);
        return v;
      },
      [](std::vector<std::size_t> a, const std::vector<std::size_t>& b) {
        a.insert(a.end(), b.begin(), b.end());
        return a;
      });
  std::vector<std::size_t> want(1000);
  std::iota(want.begin(), want.end(), std::size_t{0});
  EXPECT_EQ(got, want);
}

TEST(ParallelReduce, LeavesAreParallelForRangeChunks) {
  // Same options, same chunks: the reduce maps exactly the ranges the loop
  // hands its body, including the single call on a 1-thread pool.
  using Chunks = std::set<std::pair<std::size_t, std::size_t>>;
  ThreadPool one(1);
  ThreadPool four(4);
  for (ThreadPool* const p : {&one, &four}) {
    for (const auto partitioner :
         {Partitioner::kAuto, Partitioner::kSimple, Partitioner::kStatic}) {
      ForOptions opts{partitioner, 3, p};
      std::mutex m;
      Chunks loop;
      parallel_for_range(5, 1005, opts, [&](std::size_t lo, std::size_t hi) {
        std::lock_guard<std::mutex> lock(m);
        loop.emplace(lo, hi);
      });
      Chunks reduce;
      parallel_reduce(
          5, 1005, 0, opts,
          [&](std::size_t lo, std::size_t hi) {
            std::lock_guard<std::mutex> lock(m);
            reduce.emplace(lo, hi);
            return 0;
          },
          [](int a, int b) { return a + b; });
      EXPECT_EQ(reduce, loop)
          << to_string(partitioner) << " on " << p->num_threads();
      if (p == &one) {
        EXPECT_EQ(reduce, (Chunks{{5, 1005}}));
      }
    }
  }
}

TEST(ParallelReduce, FloatingPointResultIsReproducible) {
  // Mixed magnitudes make the sum depend on association order, so any
  // thread-dependent fold shows up as a second bit pattern.
  constexpr std::size_t kN = 20000;
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> mantissa(0.0, 1.0);
  std::uniform_int_distribution<int> exponent(-8, 8);
  std::vector<double> values(kN);
  for (double& v : values) v = mantissa(rng) * std::pow(10.0, exponent(rng));
  ThreadPool pool(4);
  ForOptions opts{Partitioner::kSimple, 64, &pool};
  std::set<double> seen;
  for (int rep = 0; rep < 200; ++rep) {
    seen.insert(parallel_reduce(
        0, kN, 0.0, opts,
        [&](std::size_t lo, std::size_t hi) {
          double s = 0.0;
          for (std::size_t i = lo; i < hi; ++i) s += values[i];
          return s;
        },
        [](double a, double b) { return a + b; }));
  }
  EXPECT_EQ(seen.size(), 1u);
}

TEST(TaskGroup, RunsAllTasks) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    group.run([&] { ran.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(ran.load(), 64);
}

TEST(TaskGroup, WaitIsReentrant) {
  TaskGroup group;
  std::atomic<int> ran{0};
  group.run([&] { ran.fetch_add(1); });
  group.wait();
  EXPECT_EQ(ran.load(), 1);
  group.run([&] { ran.fetch_add(1); });
  group.wait();
  EXPECT_EQ(ran.load(), 2);
}

TEST(TaskGroup, DestructorWaits) {
  std::atomic<int> ran{0};
  {
    TaskGroup group;
    for (int i = 0; i < 32; ++i) group.run([&] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(TaskGroup, NestedGroups) {
  std::atomic<int> ran{0};
  TaskGroup outer;
  for (int i = 0; i < 8; ++i) {
    outer.run([&] {
      TaskGroup inner;
      for (int j = 0; j < 8; ++j) inner.run([&] { ran.fetch_add(1); });
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(ran.load(), 64);
}

}  // namespace
}  // namespace pmpr::par
