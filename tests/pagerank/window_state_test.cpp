#include "pagerank/window_state.hpp"

#include <gtest/gtest.h>

#include "graph/csr.hpp"
#include "graph/multi_window.hpp"
#include "oracle/reference_kernels.hpp"
#include "pagerank/batch_csr.hpp"
#include "test_helpers.hpp"

namespace pmpr {
namespace {

MultiWindowSet one_part_set(const TemporalEdgeList& events,
                            const WindowSpec& spec) {
  return MultiWindowSet::build(events, spec, 1);
}

TEST(WindowState, MatchesWindowGraphDegrees) {
  const TemporalEdgeList events = test::random_events(3, 50, 2000, 20000);
  const WindowSpec spec = WindowSpec::cover(0, 20000, 5000, 1000);
  const MultiWindowSet set = one_part_set(events, spec);
  const auto& part = set.part(0);

  for (std::size_t w = 0; w < spec.count; w += 2) {
    WindowState state;
    CompiledWindowCsr compiled;
    compile_window(part, spec.start(w), spec.end(w), state, compiled);
    const WindowGraph ref = build_window_graph(
        events.slice(spec.start(w), spec.end(w)), events.num_vertices());

    EXPECT_EQ(state.num_active, ref.num_active) << "window " << w;
    for (VertexId local = 0; local < part.num_local(); ++local) {
      const VertexId global = part.global_of(local);
      ASSERT_EQ(state.out_degree[local], ref.out_degree[global])
          << "w=" << w << " v=" << global;
      ASSERT_EQ(state.active[local], ref.is_active[global])
          << "w=" << w << " v=" << global;
    }
  }
}

// The parallel compile's state against the serial reference scatter.
TEST(WindowState, ParallelMatchesSequential) {
  const TemporalEdgeList events = test::random_events(5, 80, 4000, 20000);
  const WindowSpec spec = WindowSpec::cover(0, 20000, 6000, 2000);
  const MultiWindowSet set = one_part_set(events, spec);
  const auto& part = set.part(0);

  par::ForOptions opts{par::Partitioner::kSimple, 4, nullptr};
  for (std::size_t w = 0; w < spec.count; ++w) {
    WindowState seq;
    WindowState parl;
    CompiledWindowCsr compiled;
    oracle::compute_window_state(part, spec.start(w), spec.end(w), seq);
    compile_window(part, spec.start(w), spec.end(w), parl, compiled, &opts);
    EXPECT_EQ(seq.num_active, parl.num_active);
    EXPECT_EQ(seq.out_degree, parl.out_degree);
    EXPECT_EQ(seq.active, parl.active);
  }
}

TEST(WindowState, EmptyWindowAllZero) {
  const TemporalEdgeList events = test::paper_example_directed();
  const WindowSpec spec{.t0 = 0, .delta = 50, .sw = 1, .count = 1};
  const MultiWindowSet set = one_part_set(events, spec);
  WindowState state;
  CompiledWindowCsr compiled;
  compile_window(set.part(0), 0, 50, state, compiled);
  EXPECT_EQ(state.num_active, 0u);
}

TEST(LanesContaining, SingleLaneBasic) {
  WindowSpec spec{.t0 = 0, .delta = 10, .sw = 5, .count = 10};
  SpmmBatch batch{.lanes = 1, .first_window = 2, .window_stride = 3};
  // Window 2 covers [10, 20].
  EXPECT_EQ(lanes_containing(spec, batch, 10), 1u);
  EXPECT_EQ(lanes_containing(spec, batch, 20), 1u);
  EXPECT_EQ(lanes_containing(spec, batch, 9), 0u);
  EXPECT_EQ(lanes_containing(spec, batch, 21), 0u);
}

TEST(LanesContaining, MatchesBruteForceSweep) {
  Xoshiro256 rng(13);
  for (int trial = 0; trial < 60; ++trial) {
    WindowSpec spec;
    spec.t0 = static_cast<Timestamp>(rng.bounded(50));
    spec.delta = static_cast<Timestamp>(rng.bounded(120));
    spec.sw = 1 + static_cast<Timestamp>(rng.bounded(30));
    spec.count = 4 + rng.bounded(60);

    SpmmBatch batch;
    batch.window_stride = 1 + rng.bounded(8);
    batch.lanes = 1 + rng.bounded(kMaxSpmmLanes);
    batch.first_window = rng.bounded(8);

    for (int probe = 0; probe < 40; ++probe) {
      const auto t = static_cast<Timestamp>(rng.bounded(2000));
      const std::uint64_t mask = lanes_containing(spec, batch, t);
      for (std::size_t k = 0; k < batch.lanes; ++k) {
        const std::size_t w = batch.window_of_lane(k);
        const bool expect = w < spec.count && spec.contains(w, t);
        ASSERT_EQ((mask >> k) & 1, expect ? 1u : 0u)
            << "t=" << t << " lane=" << k << " window=" << w;
      }
    }
  }
}

TEST(LanesContaining, LanePastWindowCountExcluded) {
  WindowSpec spec{.t0 = 0, .delta = 100, .sw = 1, .count = 5};
  // Lane 1's window (4 + 1*3 = 7) exceeds count -> only lane 0 may match.
  SpmmBatch batch{.lanes = 2, .first_window = 4, .window_stride = 3};
  const std::uint64_t mask = lanes_containing(spec, batch, 50);
  EXPECT_EQ(mask, 1u);
}

TEST(LanesContaining, StrideSkipsIntermediateWindows) {
  // Windows: w covers [5w, 5w + 20]. t = 22 lies in windows 1..4.
  WindowSpec spec{.t0 = 0, .delta = 20, .sw = 5, .count = 10};
  // Lanes hold windows 0, 2, 4, 6: only lanes 1 and 2 (windows 2, 4) match;
  // windows 1 and 3 fall between the sampled lanes.
  SpmmBatch batch{.lanes = 4, .first_window = 0, .window_stride = 2};
  EXPECT_EQ(lanes_containing(spec, batch, 22), 0b110u);
  // Offset start: lanes hold windows 1, 3 -> both inside [1, 4].
  SpmmBatch odd{.lanes = 2, .first_window = 1, .window_stride = 2};
  EXPECT_EQ(lanes_containing(spec, odd, 22), 0b11u);
}

TEST(LanesContaining, FullWidthClampAt64Lanes) {
  // delta so large that one timestamp falls in far more than 64 overlapping
  // windows: the [k_lo, k_hi] run covers all 64 lanes and the width >= 64
  // shift guard must produce ~0 (1ULL << 64 is UB).
  WindowSpec spec{.t0 = 0, .delta = 100000, .sw = 1, .count = 500};
  SpmmBatch batch{.lanes = 64, .first_window = 0, .window_stride = 1};
  EXPECT_EQ(lanes_containing(spec, batch, 499), ~0ULL);
}

TEST(LanesContaining, TimestampOutsideAllWindowsIsZero) {
  WindowSpec spec{.t0 = 100, .delta = 10, .sw = 5, .count = 8};
  SpmmBatch batch{.lanes = 8, .first_window = 0, .window_stride = 1};
  EXPECT_EQ(lanes_containing(spec, batch, 99), 0u);   // before t0
  EXPECT_EQ(lanes_containing(spec, batch, -50), 0u);  // long before t0
  // Last window (7) ends at 100 + 7*5 + 10 = 145.
  EXPECT_EQ(lanes_containing(spec, batch, 146), 0u);  // after the last end
}

TEST(LanesContaining, TimestampBeforeFirstWindowOfBatch) {
  WindowSpec spec{.t0 = 0, .delta = 10, .sw = 5, .count = 20};
  // The batch starts at window 10 ([50, 60]); t = 12 only falls in windows
  // 1 and 2, entirely before the batch (hi_num < 0 path).
  SpmmBatch batch{.lanes = 4, .first_window = 10, .window_stride = 2};
  EXPECT_EQ(lanes_containing(spec, batch, 12), 0u);
}

TEST(LanesContaining, ContainingRangeClampedToLaneCount) {
  // t = 30 falls in windows 0..6 (w*5 <= 30 <= w*5 + 30), which extends
  // past the 3-lane batch holding windows 0, 1, 2: k_hi must clamp.
  WindowSpec spec{.t0 = 0, .delta = 30, .sw = 5, .count = 12};
  SpmmBatch batch{.lanes = 3, .first_window = 0, .window_stride = 1};
  EXPECT_EQ(lanes_containing(spec, batch, 30), 0b111u);
}

TEST(LanesContaining, PartialOverlapStartsMidBatch) {
  // t = 30 in windows 0..6; the batch samples windows 4, 6, 8, 10, so only
  // lanes 0 and 1 match (k_lo = 0 rounding via ceil-divide on lo_num <= 0).
  WindowSpec spec{.t0 = 0, .delta = 30, .sw = 5, .count = 12};
  SpmmBatch batch{.lanes = 4, .first_window = 4, .window_stride = 2};
  EXPECT_EQ(lanes_containing(spec, batch, 30), 0b11u);
}

TEST(SpmmState, AgreesWithPerWindowState) {
  const TemporalEdgeList events = test::random_events(7, 60, 3000, 30000);
  const WindowSpec spec = WindowSpec::cover(0, 30000, 8000, 1500);
  const MultiWindowSet set = one_part_set(events, spec);
  const auto& part = set.part(0);

  SpmmBatch batch;
  batch.lanes = std::min<std::size_t>(8, spec.count);
  batch.first_window = 0;
  batch.window_stride = spec.count / batch.lanes > 0 ? spec.count / batch.lanes : 1;

  SpmmWindowState spmm;
  CompiledBatchCsr compiled;
  compile_spmm_batch(part, spec, batch, spmm, compiled);

  for (std::size_t k = 0; k < batch.lanes; ++k) {
    const std::size_t w = batch.window_of_lane(k);
    if (w >= spec.count) continue;
    WindowState single;
    oracle::compute_window_state(part, spec.start(w), spec.end(w), single);
    EXPECT_EQ(spmm.num_active[k], single.num_active) << "lane " << k;
    for (VertexId v = 0; v < part.num_local(); ++v) {
      ASSERT_EQ(spmm.out_degree[v * batch.lanes + k], single.out_degree[v])
          << "lane " << k << " v=" << v;
      ASSERT_EQ((spmm.active_mask[v] >> k) & 1,
                static_cast<std::uint64_t>(single.active[v]))
          << "lane " << k << " v=" << v;
    }
  }
}

// The parallel batch compile's state against the serial reference
// scatter.
TEST(SpmmState, ParallelMatchesSequential) {
  const TemporalEdgeList events = test::random_events(9, 60, 3000, 30000);
  const WindowSpec spec = WindowSpec::cover(0, 30000, 8000, 1500);
  const MultiWindowSet set = one_part_set(events, spec);
  const auto& part = set.part(0);

  SpmmBatch batch{.lanes = 4, .first_window = 1, .window_stride = 3};
  SpmmWindowState seq;
  SpmmWindowState parl;
  CompiledBatchCsr compiled;
  par::ForOptions opts{par::Partitioner::kAuto, 2, nullptr};
  oracle::compute_spmm_state(part, spec, batch, seq);
  compile_spmm_batch(part, spec, batch, parl, compiled, &opts);
  EXPECT_EQ(seq.out_degree, parl.out_degree);
  EXPECT_EQ(seq.active_mask, parl.active_mask);
  EXPECT_EQ(seq.num_active, parl.num_active);
}

}  // namespace
}  // namespace pmpr
