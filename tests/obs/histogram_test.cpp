#include "obs/histogram.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "obs/counters.hpp"
#include "obs/phase.hpp"
#include "par/parallel_for.hpp"
#include "par/thread_pool.hpp"

namespace pmpr {
namespace {

/// Restores the histogram gate and empties the blocks around each test
/// (the registry is process-global and shared with sibling tests).
struct HistogramGuard {
  const bool was_enabled = obs::set_histograms_enabled(false);
  HistogramGuard() { obs::reset_histograms(); }
  ~HistogramGuard() {
    obs::set_histograms_enabled(was_enabled);
    obs::reset_histograms();
  }
};

TEST(HistogramBuckets, SmallValuesGetExactBuckets) {
  for (std::uint64_t ns = 0; ns < 8; ++ns) {
    EXPECT_EQ(obs::bucket_index(ns), ns) << ns;
    EXPECT_EQ(obs::bucket_upper_ns(ns), ns) << ns;
  }
}

TEST(HistogramBuckets, IndexIsMonotone) {
  std::size_t prev = 0;
  for (std::uint64_t ns = 0; ns < 1 << 14; ++ns) {
    const std::size_t idx = obs::bucket_index(ns);
    ASSERT_GE(idx, prev) << ns;
    ASSERT_LT(idx, obs::kHistNumBuckets) << ns;
    prev = idx;
  }
  // Spot checks across the full range, including the clamp bucket.
  std::uint64_t spots[] = {1ull << 20,       1ull << 30,  1ull << 36,
                           (1ull << 37) - 1, 1ull << 40,  ~0ull};
  for (const std::uint64_t ns : spots) {
    const std::size_t idx = obs::bucket_index(ns);
    ASSERT_GE(idx, prev) << ns;
    ASSERT_LT(idx, obs::kHistNumBuckets) << ns;
    prev = idx;
  }
  EXPECT_EQ(obs::bucket_index(~0ull), obs::kHistNumBuckets - 1);
}

TEST(HistogramBuckets, UpperBoundIsTightAndConsistent) {
  // Every value must land in a bucket whose upper bound is >= the value
  // (conservative percentile reporting) and within the promised 12.5%
  // relative error — except the open-ended clamp bucket.
  for (std::uint64_t ns = 1; ns < 1 << 16; ns = ns * 5 / 4 + 1) {
    const std::size_t idx = obs::bucket_index(ns);
    if (idx == obs::kHistNumBuckets - 1) break;
    const std::uint64_t upper = obs::bucket_upper_ns(idx);
    ASSERT_GE(upper, ns) << ns;
    ASSERT_LE(static_cast<double>(upper - ns),
              0.125 * static_cast<double>(ns) + 1.0)
        << ns;
    // The upper bound itself must map back into the same bucket.
    ASSERT_EQ(obs::bucket_index(upper), idx) << ns;
  }
}

TEST(Histogram, DisabledRecordIsNoOp) {
  HistogramGuard guard;
  ASSERT_FALSE(obs::histograms_enabled());
  obs::record_duration(obs::Phase::kIterate, 1000);
  {
    PMPR_PHASE("hist.test.build", obs::Phase::kBuild, 0);
  }
  const obs::HistogramSnapshot snap = obs::histograms_snapshot();
  EXPECT_EQ(snap[obs::Phase::kIterate].total_count(), 0u);
  EXPECT_EQ(snap[obs::Phase::kBuild].total_count(), 0u);
}

TEST(Histogram, RecordsPerPhaseWithSumAndMax) {
  HistogramGuard guard;
  obs::set_histograms_enabled(true);
  const obs::HistogramSnapshot before = obs::histograms_snapshot();
  obs::record_duration(obs::Phase::kIterate, 100);
  obs::record_duration(obs::Phase::kIterate, 200);
  obs::record_duration(obs::Phase::kIterate, 50);
  obs::record_duration(obs::Phase::kSink, 7);
  const obs::HistogramSnapshot delta =
      obs::histograms_snapshot().delta_since(before);
  EXPECT_EQ(delta[obs::Phase::kIterate].total_count(), 3u);
  EXPECT_EQ(delta[obs::Phase::kIterate].sum_ns, 350u);
  EXPECT_EQ(delta[obs::Phase::kIterate].max_ns, 200u);
  EXPECT_NEAR(delta[obs::Phase::kIterate].mean_ns(), 350.0 / 3.0, 1e-9);
  EXPECT_EQ(delta[obs::Phase::kSink].total_count(), 1u);
  EXPECT_EQ(delta[obs::Phase::kSink].max_ns, 7u);
  EXPECT_EQ(delta[obs::Phase::kBuild].total_count(), 0u);
}

TEST(Histogram, PercentilesAreConservativeUpperBounds) {
  HistogramGuard guard;
  obs::set_histograms_enabled(true);
  // 90 fast recordings and 10 slow ones: p50/p90 must resolve to the fast
  // bucket's bound, p99 to the slow one's.
  for (int i = 0; i < 90; ++i) obs::record_duration(obs::Phase::kIterate, 100);
  for (int i = 0; i < 10; ++i) {
    obs::record_duration(obs::Phase::kIterate, 1'000'000);
  }
  const obs::HistogramSnapshot snap = obs::histograms_snapshot();
  const obs::PhaseHistogram& h = snap[obs::Phase::kIterate];
  const std::uint64_t p50 = h.percentile_ns(0.50);
  const std::uint64_t p90 = h.percentile_ns(0.90);
  const std::uint64_t p99 = h.percentile_ns(0.99);
  EXPECT_GE(p50, 100u);
  EXPECT_LE(p50, 113u);  // <= 12.5% quantization error
  EXPECT_GE(p90, 100u);
  EXPECT_LE(p90, 113u);
  EXPECT_GE(p99, 1'000'000u);
  EXPECT_LE(p99, 1'125'000u);
  // max is exact, and percentiles never exceed it.
  EXPECT_EQ(h.max_ns, 1'000'000u);
  EXPECT_LE(h.percentile_ns(1.0), h.max_ns);
  // q is clamped, empty-side convention is 0.
  EXPECT_EQ(h.percentile_ns(-3.0), h.percentile_ns(0.0));
  EXPECT_EQ(h.percentile_ns(7.0), h.percentile_ns(1.0));
}

TEST(Histogram, EmptyPercentileIsZero) {
  HistogramGuard guard;
  const obs::HistogramSnapshot snap = obs::histograms_snapshot();
  const obs::PhaseHistogram& h = snap[obs::Phase::kBuild];
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_EQ(h.percentile_ns(0.5), 0u);
  EXPECT_EQ(h.mean_ns(), 0.0);
}

TEST(Histogram, PhaseScopeRecordsElapsed) {
  HistogramGuard guard;
  obs::set_histograms_enabled(true);
  const obs::HistogramSnapshot before = obs::histograms_snapshot();
  {
    PMPR_PHASE("hist.test.build", obs::Phase::kBuild, 0);
    // Burn a little time so the recording is non-degenerate.
    volatile std::uint64_t x = 0;
    for (int i = 0; i < 10000; ++i) x = x + static_cast<std::uint64_t>(i);
  }
  const obs::HistogramSnapshot delta =
      obs::histograms_snapshot().delta_since(before);
  EXPECT_EQ(delta[obs::Phase::kBuild].total_count(), 1u);
  EXPECT_GT(delta[obs::Phase::kBuild].sum_ns, 0u);
}

TEST(Histogram, TimerStartedBeforeDisableStillRecords) {
  // The gate is checked at construction: a timer that began while enabled
  // records even if the gate flips mid-flight (span semantics).
  HistogramGuard guard;
  obs::set_histograms_enabled(true);
  const obs::HistogramSnapshot before = obs::histograms_snapshot();
  {
    PMPR_PHASE("hist.test.sink", obs::Phase::kSink, 0);
    obs::set_histograms_enabled(false);
  }
  const obs::HistogramSnapshot delta =
      obs::histograms_snapshot().delta_since(before);
  EXPECT_EQ(delta[obs::Phase::kSink].total_count(), 1u);
}

TEST(Histogram, ParallelChurnSumsExactly) {
  // Recording from pool workers must aggregate exactly once producers
  // quiesce — same contract as the counter registry.
  HistogramGuard guard;
  obs::set_histograms_enabled(true);
  par::ThreadPool pool(4);
  par::ForOptions opts;
  opts.pool = &pool;
  opts.grain = 8;
  constexpr std::size_t kN = 10000;
  const obs::HistogramSnapshot before = obs::histograms_snapshot();
  par::parallel_for(0, kN, opts, [](std::size_t i) {
    obs::record_duration(obs::Phase::kIterate, (i % 64) + 1);
  });
  const obs::HistogramSnapshot delta =
      obs::histograms_snapshot().delta_since(before);
  EXPECT_EQ(delta[obs::Phase::kIterate].total_count(), kN);
  EXPECT_EQ(delta[obs::Phase::kIterate].max_ns, 64u);
}

TEST(Histogram, RecordBumpsHistogramRecordsCounter) {
  HistogramGuard guard;
  const bool counters_were = obs::set_counters_enabled(true);
  obs::set_histograms_enabled(true);
  const obs::CounterSnapshot before = obs::counters_snapshot();
  obs::record_duration(obs::Phase::kBuild, 42);
  obs::record_duration(obs::Phase::kSink, 43);
  const obs::CounterSnapshot delta = obs::counters_snapshot() - before;
  EXPECT_EQ(delta[obs::Counter::kHistogramRecords], 2u);
  obs::set_counters_enabled(counters_were);
}

}  // namespace
}  // namespace pmpr
