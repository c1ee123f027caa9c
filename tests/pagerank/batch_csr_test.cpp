#include "pagerank/batch_csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "oracle/reference_kernels.hpp"
#include "test_helpers.hpp"

namespace pmpr {
namespace {

struct Fixture {
  TemporalEdgeList events;
  WindowSpec spec;
  MultiWindowSet set;

  explicit Fixture(std::uint64_t seed)
      : events(test::random_events(seed, 60, 4000, 40000)),
        spec(WindowSpec::cover(0, 40000, 9000, 1500)),
        set(MultiWindowSet::build(events, spec, 1)) {}
};

SpmmBatch batch_for(const WindowSpec& spec, std::size_t lanes,
                    std::size_t first, std::size_t stride) {
  SpmmBatch b;
  b.lanes = std::min(lanes, spec.count);
  b.first_window = first;
  b.window_stride = stride;
  return b;
}

TEST(CompileSpmmBatch, StateIdenticalToScatter) {
  const Fixture f(101);
  const auto& part = f.set.part(0);
  const SpmmBatch batch = batch_for(f.spec, 8, 0, 2);

  SpmmWindowState ref;
  oracle::compute_spmm_state(part, f.spec, batch, ref);

  SpmmWindowState state;
  CompiledBatchCsr compiled;
  compile_spmm_batch(part, f.spec, batch, state, compiled);

  EXPECT_EQ(state.out_degree, ref.out_degree);
  EXPECT_EQ(state.active_mask, ref.active_mask);
  EXPECT_EQ(state.num_active, ref.num_active);
}

TEST(CompileSpmmBatch, EntriesAreDistinctRunsWithNonzeroMasks) {
  const Fixture f(202);
  const auto& part = f.set.part(0);
  const SpmmBatch batch = batch_for(f.spec, 8, 1, 2);

  SpmmWindowState state;
  CompiledBatchCsr compiled;
  compile_spmm_batch(part, f.spec, batch, state, compiled);

  ASSERT_EQ(compiled.num_rows(), static_cast<std::size_t>(part.num_local()));
  ASSERT_EQ(compiled.lanes, batch.lanes);
  for (VertexId v = 0; v < part.num_local(); ++v) {
    const auto nbr = compiled.row_nbr(v);
    const auto mask = compiled.row_mask(v);
    ASSERT_EQ(nbr.size(), mask.size());
    for (std::size_t i = 0; i < nbr.size(); ++i) {
      EXPECT_NE(mask[i], 0u) << "v=" << v;
      if (i > 0) {
        EXPECT_LT(nbr[i - 1], nbr[i]) << "v=" << v;  // distinct runs
      }
      // The entry's mask must equal the union of lanes_containing over the
      // run's events in the temporal CSR.
      const auto cols = part.in.row_cols(v);
      const auto times = part.in.row_times(v);
      std::uint64_t expect = 0;
      for (std::size_t j = 0; j < cols.size(); ++j) {
        if (cols[j] == nbr[i]) {
          expect |= lanes_containing(f.spec, batch, times[j]);
        }
      }
      EXPECT_EQ(mask[i], expect) << "v=" << v << " u=" << nbr[i];
    }
  }
}

TEST(CompileSpmmBatch, ActiveAndDanglingListsMatchState) {
  const Fixture f(303);
  const auto& part = f.set.part(0);
  const SpmmBatch batch = batch_for(f.spec, 16, 0, 1);

  SpmmWindowState state;
  CompiledBatchCsr compiled;
  compile_spmm_batch(part, f.spec, batch, state, compiled);

  std::vector<VertexId> active;
  std::vector<VertexId> dangling_rows;
  std::vector<std::uint64_t> dangling_mask;
  for (VertexId v = 0; v < part.num_local(); ++v) {
    const std::uint64_t m = state.active_mask[v];
    if (m == 0) continue;
    active.push_back(v);
    std::uint64_t d = 0;
    for (std::size_t k = 0; k < batch.lanes; ++k) {
      if ((m >> k & 1) != 0 && state.out_degree[v * batch.lanes + k] == 0) {
        d |= 1ULL << k;
      }
    }
    if (d != 0) {
      dangling_rows.push_back(v);
      dangling_mask.push_back(d);
    }
  }
  EXPECT_EQ(compiled.active_rows, active);
  EXPECT_EQ(compiled.dangling_rows, dangling_rows);
  EXPECT_EQ(compiled.dangling_mask, dangling_mask);
  EXPECT_GT(compiled.memory_bytes(), 0u);
}

TEST(CompileSpmmBatch, ParallelMatchesSequential) {
  const Fixture f(404);
  const auto& part = f.set.part(0);
  const SpmmBatch batch = batch_for(f.spec, 8, 1, 3);

  SpmmWindowState seq_state;
  CompiledBatchCsr seq;
  compile_spmm_batch(part, f.spec, batch, seq_state, seq);

  par::ForOptions opts{par::Partitioner::kSimple, 4, nullptr};
  SpmmWindowState par_state;
  CompiledBatchCsr parl;
  compile_spmm_batch(part, f.spec, batch, par_state, parl, &opts);

  EXPECT_EQ(seq_state.out_degree, par_state.out_degree);
  EXPECT_EQ(seq_state.active_mask, par_state.active_mask);
  EXPECT_EQ(seq_state.num_active, par_state.num_active);
  EXPECT_EQ(seq.row_ptr, parl.row_ptr);
  EXPECT_EQ(seq.nbr, parl.nbr);
  EXPECT_EQ(seq.mask, parl.mask);
  EXPECT_EQ(seq.active_rows, parl.active_rows);
  EXPECT_EQ(seq.dangling_rows, parl.dangling_rows);
  EXPECT_EQ(seq.dangling_mask, parl.dangling_mask);
}

TEST(CompileSpmmBatch, ReusedOutputIsReset) {
  const Fixture f(505);
  const auto& part = f.set.part(0);

  SpmmWindowState state;
  CompiledBatchCsr compiled;
  compile_spmm_batch(part, f.spec, batch_for(f.spec, 16, 0, 1), state,
                     compiled);

  // Recompile a smaller batch into the same objects; results must match a
  // fresh compile (the runner reuses one state across a part's work items).
  const SpmmBatch small = batch_for(f.spec, 2, 3, 1);
  compile_spmm_batch(part, f.spec, small, state, compiled);
  SpmmWindowState fresh_state;
  CompiledBatchCsr fresh;
  compile_spmm_batch(part, f.spec, small, fresh_state, fresh);
  EXPECT_EQ(compiled.nbr, fresh.nbr);
  EXPECT_EQ(compiled.mask, fresh.mask);
  EXPECT_EQ(compiled.active_rows, fresh.active_rows);
  EXPECT_EQ(compiled.dangling_rows, fresh.dangling_rows);
  EXPECT_EQ(state.out_degree, fresh_state.out_degree);
}

TEST(CompileWindow, StateIdenticalToComputeWindowState) {
  const Fixture f(606);
  const auto& part = f.set.part(0);

  for (std::size_t w = 0; w < f.spec.count; w += 3) {
    WindowState ref;
    oracle::compute_window_state(part, f.spec.start(w), f.spec.end(w), ref);

    WindowState state;
    CompiledWindowCsr compiled;
    compile_window(part, f.spec.start(w), f.spec.end(w), state, compiled);

    EXPECT_EQ(state.out_degree, ref.out_degree) << "window " << w;
    EXPECT_EQ(state.active, ref.active) << "window " << w;
    EXPECT_EQ(state.num_active, ref.num_active) << "window " << w;
  }
}

TEST(CompileWindow, NeighborsMatchTimeFilteredScan) {
  const Fixture f(707);
  const auto& part = f.set.part(0);
  const std::size_t w = f.spec.count / 2;

  WindowState state;
  CompiledWindowCsr compiled;
  compile_window(part, f.spec.start(w), f.spec.end(w), state, compiled);

  for (VertexId v = 0; v < part.num_local(); ++v) {
    std::vector<VertexId> expect;
    part.in.for_each_active_neighbor(v, f.spec.start(w), f.spec.end(w),
                                     [&](VertexId u) { expect.push_back(u); });
    const auto nbr = compiled.row_nbr(v);
    ASSERT_EQ(std::vector<VertexId>(nbr.begin(), nbr.end()), expect)
        << "v=" << v;
  }

  std::vector<VertexId> active;
  std::vector<VertexId> dangling;
  for (VertexId v = 0; v < part.num_local(); ++v) {
    if (state.active[v] == 0) continue;
    active.push_back(v);
    if (state.out_degree[v] == 0) dangling.push_back(v);
  }
  EXPECT_EQ(compiled.active_rows, active);
  EXPECT_EQ(compiled.dangling_rows, dangling);
}

TEST(CompileWindow, ParallelMatchesSequential) {
  const Fixture f(808);
  const auto& part = f.set.part(0);
  const std::size_t w = 1;

  WindowState seq_state;
  CompiledWindowCsr seq;
  compile_window(part, f.spec.start(w), f.spec.end(w), seq_state, seq);

  par::ForOptions opts{par::Partitioner::kAuto, 2, nullptr};
  WindowState par_state;
  CompiledWindowCsr parl;
  compile_window(part, f.spec.start(w), f.spec.end(w), par_state, parl,
                 &opts);

  EXPECT_EQ(seq.row_ptr, parl.row_ptr);
  EXPECT_EQ(seq.nbr, parl.nbr);
  EXPECT_EQ(seq.active_rows, parl.active_rows);
  EXPECT_EQ(seq.dangling_rows, parl.dangling_rows);
  EXPECT_EQ(seq_state.out_degree, par_state.out_degree);
}

TEST(CompileWindow, EmptyWindow) {
  const Fixture f(909);
  const auto& part = f.set.part(0);
  WindowState state;
  CompiledWindowCsr compiled;
  // A range before every event: nothing is active, nothing is compiled.
  compile_window(part, -2000, -1000, state, compiled);
  EXPECT_EQ(state.num_active, 0u);
  EXPECT_TRUE(compiled.nbr.empty());
  EXPECT_TRUE(compiled.active_rows.empty());
  EXPECT_TRUE(compiled.dangling_rows.empty());
}

}  // namespace
}  // namespace pmpr
