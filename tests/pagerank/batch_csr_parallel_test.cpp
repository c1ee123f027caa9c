// Parallel-compile race coverage for the two-pass count/prefix/fill build
// in batch_csr.cpp. These tests exist primarily to run under
// ThreadSanitizer — they are registered as their own ctest binary so
// ci/sanitize.sh's TSan pass picks them up by label. The atomicity
// contract they exercise is documented at scatter_row: row_ptr[v+1] is
// row-owned (plain stores in both walks); out_degree and active_mask are
// cross-row scatters and use std::atomic_ref in the parallel walk only.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "pagerank/batch_csr.hpp"
#include "oracle/reference_kernels.hpp"
#include "pagerank/window_state.hpp"
#include "test_helpers.hpp"
#include "util/bits.hpp"

namespace pmpr {
namespace {

struct Built {
  SpmmWindowState state;
  CompiledBatchCsr compiled;
};

Built build(const MultiWindowGraph& part, const WindowSpec& spec,
            const SpmmBatch& batch, const par::ForOptions* parallel) {
  Built b;
  compile_spmm_batch(part, spec, batch, b.state, b.compiled, parallel);
  return b;
}

void expect_equal(const Built& ref, const Built& par) {
  EXPECT_EQ(ref.state.lanes, par.state.lanes);
  EXPECT_EQ(ref.state.out_degree, par.state.out_degree);
  EXPECT_EQ(ref.state.active_mask, par.state.active_mask);
  EXPECT_EQ(ref.state.num_active, par.state.num_active);
  EXPECT_EQ(ref.compiled.row_ptr, par.compiled.row_ptr);
  EXPECT_EQ(ref.compiled.nbr, par.compiled.nbr);
  EXPECT_EQ(ref.compiled.mask, par.compiled.mask);
  EXPECT_EQ(ref.compiled.active_rows, par.compiled.active_rows);
  EXPECT_EQ(ref.compiled.dangling_rows, par.compiled.dangling_rows);
  EXPECT_EQ(ref.compiled.dangling_mask, par.compiled.dangling_mask);
}

/// Compaction lists derived from the reference scatter's state: what
/// compile_spmm_batch's finalize must produce.
struct Lists {
  std::vector<VertexId> active_rows;
  std::vector<VertexId> dangling_rows;
  std::vector<std::uint64_t> dangling_mask;
};

Lists lists_of(const SpmmWindowState& state) {
  Lists l;
  for (std::size_t v = 0; v < state.active_mask.size(); ++v) {
    const std::uint64_t m = state.active_mask[v];
    if (m == 0) continue;
    l.active_rows.push_back(static_cast<VertexId>(v));
    std::uint64_t dangling = 0;
    for (std::size_t k = 0; k < state.lanes; ++k) {
      if (mask_test(m, k) && state.out_degree[v * state.lanes + k] == 0) {
        dangling |= lane_bit(k);
      }
    }
    if (dangling != 0) {
      l.dangling_rows.push_back(static_cast<VertexId>(v));
      l.dangling_mask.push_back(dangling);
    }
  }
  return l;
}

/// Serial and parallel compiles of `batch` against the reference scatter:
/// degrees, activity, populations and the compaction lists.
void expect_matches_oracle(const MultiWindowGraph& part,
                           const WindowSpec& spec, const SpmmBatch& batch) {
  SpmmWindowState ref;
  oracle::compute_spmm_state(part, spec, batch, ref);
  const Lists lists = lists_of(ref);
  par::ForOptions opts{par::Partitioner::kSimple, 1, nullptr};
  const par::ForOptions* walks[] = {nullptr, &opts};
  for (const par::ForOptions* parallel : walks) {
    const Built b = build(part, spec, batch, parallel);
    const char* walk = parallel != nullptr ? "parallel" : "serial";
    EXPECT_EQ(b.state.out_degree, ref.out_degree) << walk;
    EXPECT_EQ(b.state.active_mask, ref.active_mask) << walk;
    EXPECT_EQ(b.state.num_active, ref.num_active) << walk;
    EXPECT_EQ(b.compiled.active_rows, lists.active_rows) << walk;
    EXPECT_EQ(b.compiled.dangling_rows, lists.dangling_rows) << walk;
    EXPECT_EQ(b.compiled.dangling_mask, lists.dangling_mask) << walk;
  }
}

/// True when some compiled entry's mask satisfies `pred`.
template <typename Pred>
bool some_mask(const MultiWindowGraph& part, const WindowSpec& spec,
               const SpmmBatch& batch, Pred&& pred) {
  const Built b = build(part, spec, batch, nullptr);
  return std::ranges::any_of(b.compiled.mask, pred);
}

std::size_t runs_of(std::uint64_t m) {
  return static_cast<std::size_t>(std::popcount(m & ~(m << 1)));
}

TEST(BatchCsrParallel, CompileMatchesSerialAcrossLaneCounts) {
  const TemporalEdgeList events = test::random_events(7001, 60, 4000, 50000);
  const WindowSpec spec{.t0 = 0, .delta = 6000, .sw = 45, .count = 1100};
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
  const auto& part = set.part(0);
  // Fine grain to force many chunks (and thus real concurrency under
  // TSan) even on small row counts.
  par::ForOptions opts{par::Partitioner::kSimple, 1, nullptr};
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{16},
                                  std::size_t{33}, kMaxSpmmLanes}) {
    SpmmBatch batch;
    batch.lanes = lanes;
    batch.first_window = 0;
    batch.window_stride = 1;
    const Built ref = build(part, spec, batch, nullptr);
    const Built par = build(part, spec, batch, &opts);
    expect_equal(ref, par);
  }
}

// Serial and parallel compiles against the reference scatter at a lane
// count (45) outside the sweep above, and on strided lanes starting
// mid-spec over a graph spanning several finalize blocks.
TEST(BatchCsrParallel, ComputeSpmmStateMatchesSerial) {
  {
    const TemporalEdgeList events =
        test::random_events(7102, 40, 3000, 20000);
    const WindowSpec spec{.t0 = 0, .delta = 2500, .sw = 60, .count = 45};
    const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
    SpmmBatch batch;
    batch.lanes = 45;
    expect_matches_oracle(set.part(0), spec, batch);
  }
  {
    const TemporalEdgeList events =
        test::random_events(7405, 9000, 60000, 50000);
    const WindowSpec spec{.t0 = 0, .delta = 4000, .sw = 150, .count = 300};
    const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
    SpmmBatch batch;
    batch.lanes = 50;
    batch.first_window = 3;
    batch.window_stride = 5;
    expect_matches_oracle(set.part(0), spec, batch);
  }
}

TEST(BatchCsrParallel, RepeatedParallelCompilesAreDeterministic) {
  const TemporalEdgeList events = test::random_events(7203, 50, 3500, 30000);
  const WindowSpec spec{.t0 = 0, .delta = 4000, .sw = 220, .count = 120};
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
  const auto& part = set.part(0);
  par::ForOptions opts{par::Partitioner::kAuto, 2, nullptr};
  SpmmBatch batch;
  batch.lanes = kMaxSpmmLanes;
  batch.first_window = 0;
  batch.window_stride = 1;
  const Built first = build(part, spec, batch, &opts);
  for (int round = 0; round < 3; ++round) {
    const Built again = build(part, spec, batch, &opts);
    expect_equal(first, again);
  }
}

TEST(BatchCsrParallel, RunBoundaryDegreesMatchOracle) {
  // Windows [10k, 10k + 15]: an event at t lies in lanes ceil((t-15)/10)
  // .. floor(t/10), so two events of one ⟨v, u⟩ pair far apart in time
  // give that entry a mask of two disjoint runs. Random traffic around
  // them fills in degrees, dangling vertices and empty rows.
  TemporalEdgeList events = test::random_events(7304, 300, 1500, 700);
  events.add(3, 4, 12);   // lanes {0, 1}
  events.add(3, 4, 62);   // lanes {5, 6}
  events.add(3, 4, 635);  // lanes {62, 63}: the run ends at the last lane
  events.sort_by_time();
  const WindowSpec spec{.t0 = 0, .delta = 15, .sw = 10, .count = 64};
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
  const auto& part = set.part(0);
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{7},
                                  std::size_t{33}, kMaxSpmmLanes}) {
    SpmmBatch batch;
    batch.lanes = lanes;
    expect_matches_oracle(part, spec, batch);
  }

  SpmmBatch wide;
  wide.lanes = kMaxSpmmLanes;
  EXPECT_TRUE(some_mask(part, spec, wide,
                        [](std::uint64_t m) { return runs_of(m) >= 2; }));
  EXPECT_TRUE(some_mask(part, spec, wide, [](std::uint64_t m) {
    return mask_test(m, kMaxSpmmLanes - 1);
  }));
}

}  // namespace
}  // namespace pmpr
