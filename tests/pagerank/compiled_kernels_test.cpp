// Differential tests: the production kernels (pagerank/batch_csr.hpp) must
// agree with the serial reference kernels of tests/oracle/ —
// bit-identically when run serially (same floating-point operations in the
// same order), within summation-order rounding when run in parallel —
// across lane counts, strides, dangling redistribution and SIMD ISAs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "oracle/reference_kernels.hpp"
#include "pagerank/batch_csr.hpp"
#include "pagerank/simd_dispatch.hpp"
#include "pagerank/spmm_temporal.hpp"
#include "pagerank/spmv_temporal.hpp"
#include "test_helpers.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"

namespace pmpr {
namespace {

struct Fixture {
  TemporalEdgeList events;
  WindowSpec spec;
  MultiWindowSet set;

  explicit Fixture(std::uint64_t seed)
      : events(test::random_events(seed, 70, 5000, 50000)),
        spec(WindowSpec::cover(0, 50000, 9000, 700)),
        set(MultiWindowSet::build(events, spec, 1)) {}

  Fixture(std::uint64_t seed, const WindowSpec& wide_spec)
      : events(test::random_events(seed, 50, 2500, 50000)),
        spec(wide_spec),
        set(MultiWindowSet::build(events, spec, 1)) {}
};

/// Enough heavily-overlapping windows that every lane of a 64-wide batch
/// at stride 2 maps to a real (event-carrying) window.
WindowSpec wide_spec() {
  return WindowSpec{.t0 = 0, .delta = 6000, .sw = 45, .count = 200};
}

/// Windows short against their slide, so that at window_stride 20 an event
/// falls in one or two lanes: most compiled entries of a 64-lane batch
/// select lanes in only one or two of its eight 8-lane groups.
WindowSpec sparse_lane_spec() {
  return WindowSpec{.t0 = 0, .delta = 1000, .sw = 40, .count = 1300};
}

PagerankParams params_with(bool dangling) {
  PagerankParams p;
  p.tol = 1e-10;
  p.max_iters = 300;
  p.redistribute_dangling = dangling;
  return p;
}

/// Lane-interleaved full initialization shared by both runs.
std::vector<double> init_x(const SpmmWindowState& state, std::size_t n) {
  std::vector<double> x(n * state.lanes, 0.0);
  for (std::size_t k = 0; k < state.lanes; ++k) {
    const double uniform =
        state.num_active[k] > 0
            ? 1.0 / static_cast<double>(state.num_active[k])
            : 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      x[v * state.lanes + k] =
          mask_test(state.active_mask[v], k) ? uniform : 0.0;
    }
  }
  return x;
}

struct SpmmRun {
  std::vector<double> x;
  SpmmStats stats;
};

SpmmRun run_reference(const Fixture& f, const SpmmBatch& batch,
                      bool dangling) {
  const auto& part = f.set.part(0);
  const std::size_t n = part.num_local();
  SpmmWindowState state;
  oracle::compute_spmm_state(part, f.spec, batch, state);
  SpmmRun run;
  run.x = init_x(state, n);
  std::vector<double> scratch(n * batch.lanes);
  run.stats = oracle::pagerank_spmm(part, f.spec, batch, state, run.x,
                                    scratch, params_with(dangling));
  return run;
}

SpmmRun run_compiled(const Fixture& f, const SpmmBatch& batch, bool dangling,
                     const par::ForOptions* parallel,
                     SimdMode simd = SimdMode::kAuto) {
  const auto& part = f.set.part(0);
  const std::size_t n = part.num_local();
  SpmmWindowState state;
  CompiledBatchCsr compiled;
  compile_spmm_batch(part, f.spec, batch, state, compiled, parallel);
  SpmmRun run;
  run.x = init_x(state, n);
  std::vector<double> scratch(n * batch.lanes);
  run.stats = pagerank_spmm(state, compiled, run.x, scratch,
                            params_with(dangling), parallel, simd);
  return run;
}

void expect_stats_equal(const SpmmStats& a, const SpmmStats& b) {
  ASSERT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.lane_stats.size(), b.lane_stats.size());
  for (std::size_t k = 0; k < a.lane_stats.size(); ++k) {
    EXPECT_EQ(a.lane_stats[k].iterations, b.lane_stats[k].iterations)
        << "lane " << k;
    EXPECT_EQ(a.lane_stats[k].final_residual, b.lane_stats[k].final_residual)
        << "lane " << k;
  }
}

TEST(CompiledSpmm, SerialBitIdenticalAcrossLanesStridesDangling) {
  const Fixture f(1201);
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{3},
                                  std::size_t{64}}) {
    for (const std::size_t stride : {std::size_t{1}, std::size_t{2}}) {
      for (const bool dangling : {true, false}) {
        SpmmBatch batch;
        batch.lanes = std::min(lanes, f.spec.count);
        batch.first_window = 0;
        batch.window_stride = stride;
        const SpmmRun ref = run_reference(f, batch, dangling);
        const SpmmRun cmp = run_compiled(f, batch, dangling, nullptr);
        ASSERT_EQ(ref.x, cmp.x) << "lanes=" << lanes << " stride=" << stride
                                << " dangling=" << dangling;
        expect_stats_equal(ref.stats, cmp.stats);
      }
    }
  }
}

TEST(CompiledSpmm, ParallelMatchesReference) {
  const Fixture f(1302);
  par::ForOptions opts{par::Partitioner::kAuto, 4, nullptr};
  for (const std::size_t lanes : {std::size_t{3}, std::size_t{16}}) {
    for (const bool dangling : {true, false}) {
      SpmmBatch batch;
      batch.lanes = std::min(lanes, f.spec.count);
      batch.first_window = 1;
      batch.window_stride = 2;
      const SpmmRun ref = run_reference(f, batch, dangling);
      const SpmmRun cmp = run_compiled(f, batch, dangling, &opts);
      ASSERT_EQ(ref.stats.iterations, cmp.stats.iterations);
      ASSERT_EQ(ref.x.size(), cmp.x.size());
      double linf = 0.0;
      for (std::size_t i = 0; i < ref.x.size(); ++i) {
        linf = std::max(linf, std::abs(ref.x[i] - cmp.x[i]));
      }
      // Parallel chunking only changes floating-point summation order.
      EXPECT_LT(linf, 1e-12) << "lanes=" << lanes;
    }
  }
}

TEST(CompiledSpmv, SerialBitIdenticalPerWindow) {
  const Fixture f(1403);
  const auto& part = f.set.part(0);
  const std::size_t n = part.num_local();
  for (const bool dangling : {true, false}) {
    for (std::size_t w = 0; w < f.spec.count; w += 7) {
      const Timestamp ts = f.spec.start(w);
      const Timestamp te = f.spec.end(w);

      WindowState ref_state;
      oracle::compute_window_state(part, ts, te, ref_state);
      std::vector<double> ref_x(n);
      std::vector<double> scratch(n);
      full_init(ref_state.active, ref_state.num_active, ref_x);
      const PagerankStats ref_stats =
          oracle::pagerank_window_spmv(part, ts, te, ref_state, ref_x,
                                       scratch, params_with(dangling));

      WindowState state;
      CompiledWindowCsr compiled;
      compile_window(part, ts, te, state, compiled);
      std::vector<double> x(n);
      full_init(state.active, state.num_active, x);
      const PagerankStats stats = pagerank_window_spmv(
          state, compiled, x, scratch, params_with(dangling));

      ASSERT_EQ(ref_x, x) << "window " << w << " dangling=" << dangling;
      EXPECT_EQ(ref_stats.iterations, stats.iterations) << "window " << w;
      EXPECT_EQ(ref_stats.final_residual, stats.final_residual)
          << "window " << w;
    }
  }
}

TEST(CompiledSpmv, ParallelMatchesReference) {
  const Fixture f(1504);
  const auto& part = f.set.part(0);
  const std::size_t n = part.num_local();
  par::ForOptions opts{par::Partitioner::kSimple, 8, nullptr};
  const std::size_t w = f.spec.count / 2;
  const Timestamp ts = f.spec.start(w);
  const Timestamp te = f.spec.end(w);

  WindowState ref_state;
  oracle::compute_window_state(part, ts, te, ref_state);
  std::vector<double> ref_x(n);
  std::vector<double> scratch(n);
  full_init(ref_state.active, ref_state.num_active, ref_x);
  const PagerankStats ref_stats = oracle::pagerank_window_spmv(
      part, ts, te, ref_state, ref_x, scratch, params_with(true));

  WindowState state;
  CompiledWindowCsr compiled;
  compile_window(part, ts, te, state, compiled, &opts);
  std::vector<double> x(n);
  full_init(state.active, state.num_active, x);
  const PagerankStats stats = pagerank_window_spmv(state, compiled, x,
                                                   scratch, params_with(true),
                                                   &opts);

  EXPECT_EQ(ref_stats.iterations, stats.iterations);
  double linf = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    linf = std::max(linf, std::abs(ref_x[i] - x[i]));
  }
  EXPECT_LT(linf, 1e-12);
}

// Every lane count up to the full 64-lane word, so every group count of
// the AVX2 (4-lane) and AVX-512 (8-lane) kernels with every tail width.
// Serial compiled runs must be bit-identical to the reference kernel in
// all of them.
TEST(CompiledSpmm, LaneGroupEdgesSerialBitIdentical) {
  const Fixture f(2101, wide_spec());
  for (std::size_t lanes = 1; lanes <= kMaxSpmmLanes; ++lanes) {
    for (const std::size_t stride : {std::size_t{1}, std::size_t{2}}) {
      for (const bool dangling : {true, false}) {
        SpmmBatch batch;
        batch.lanes = lanes;
        batch.first_window = 0;
        batch.window_stride = stride;
        ASSERT_LE(batch.window_of_lane(lanes - 1), f.spec.count - 1);
        const SpmmRun ref = run_reference(f, batch, dangling);
        const SpmmRun cmp = run_compiled(f, batch, dangling, nullptr);
        ASSERT_EQ(ref.x, cmp.x) << "lanes=" << lanes << " stride=" << stride
                                << " dangling=" << dangling;
        expect_stats_equal(ref.stats, cmp.stats);
      }
    }
  }
}

TEST(CompiledSpmm, FullWordParallelMatchesReference) {
  const Fixture f(2202, wide_spec());
  par::ForOptions opts{par::Partitioner::kAuto, 4, nullptr};
  for (const std::size_t lanes : {std::size_t{33}, kMaxSpmmLanes}) {
    SpmmBatch batch;
    batch.lanes = lanes;
    batch.first_window = 0;
    batch.window_stride = 1;
    const SpmmRun ref = run_reference(f, batch, true);
    const SpmmRun cmp = run_compiled(f, batch, true, &opts);
    ASSERT_EQ(ref.stats.iterations, cmp.stats.iterations);
    ASSERT_EQ(ref.x.size(), cmp.x.size());
    double linf = 0.0;
    for (std::size_t i = 0; i < ref.x.size(); ++i) {
      linf = std::max(linf, std::abs(ref.x[i] - cmp.x[i]));
    }
    // Parallel chunking only changes floating-point summation order.
    EXPECT_LT(linf, 1e-12) << "lanes=" << lanes;
  }
}

/// Forced-ISA differential: each vector kernel must produce exactly the
/// scalar kernel's bits (all sweeps perform the same per-lane FP ops in
/// the same order; cross-lane vectorization touches independent
/// accumulators).
void expect_batch_matches_scalar(const Fixture& f, const SpmmBatch& batch,
                                 SimdIsa isa, SimdMode mode) {
  for (const bool dangling : {true, false}) {
    const SpmmRun scalar =
        run_compiled(f, batch, dangling, nullptr, SimdMode::kScalar);
    const SpmmRun vec = run_compiled(f, batch, dangling, nullptr, mode);
    ASSERT_EQ(scalar.x, vec.x) << to_string(isa) << " lanes=" << batch.lanes
                               << " stride=" << batch.window_stride
                               << " dangling=" << dangling;
    expect_stats_equal(scalar.stats, vec.stats);
  }
}

/// Every lane count 1..64, so every group-count instantiation of each ISA
/// and every partial last group runs.
void expect_isa_matches_scalar(SimdIsa isa, SimdMode mode) {
  if (!simd_isa_supported(isa)) {
    GTEST_SKIP() << to_string(isa)
                 << " not built or not supported on this host";
  }
  const Fixture f(2303, wide_spec());
  for (std::size_t lanes = 1; lanes <= kMaxSpmmLanes; ++lanes) {
    expect_batch_matches_scalar(
        f, SpmmBatch{.lanes = lanes, .first_window = 0, .window_stride = 1},
        isa, mode);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CompiledSpmmDispatch, Avx2BitIdenticalToScalar) {
  expect_isa_matches_scalar(SimdIsa::kAvx2, SimdMode::kAvx2);
}

TEST(CompiledSpmmDispatch, Avx512BitIdenticalToScalar) {
  expect_isa_matches_scalar(SimdIsa::kAvx512, SimdMode::kAvx512);
}

/// Fraction of compiled entries whose lane mask touches at most two
/// 8-lane groups.
double share_of_entries_within_two_groups(const CompiledBatchCsr& compiled) {
  std::size_t narrow = 0;
  for (const std::uint64_t m : compiled.mask) {
    int groups = 0;
    for (std::size_t g = 0; g < 8; ++g) groups += (m >> (g * 8) & 0xFF) != 0;
    narrow += groups <= 2;
  }
  return static_cast<double>(narrow) /
         static_cast<double>(compiled.mask.size());
}

/// Strided lanes over short windows: most entries select one or two lane
/// groups, so the vector kernels skip most groups of every entry, and rows
/// end with groups that have no live lane.
void expect_sparse_groups_match_scalar(SimdIsa isa, SimdMode mode) {
  if (!simd_isa_supported(isa)) {
    GTEST_SKIP() << to_string(isa)
                 << " not built or not supported on this host";
  }
  const Fixture f(2606, sparse_lane_spec());
  for (const std::size_t lanes : {std::size_t{61}, kMaxSpmmLanes}) {
    const SpmmBatch batch{
        .lanes = lanes, .first_window = 3, .window_stride = 20};
    ASSERT_LE(batch.window_of_lane(lanes - 1), f.spec.count - 1);
    SpmmWindowState state;
    CompiledBatchCsr compiled;
    compile_spmm_batch(f.set.part(0), f.spec, batch, state, compiled);
    ASSERT_GT(share_of_entries_within_two_groups(compiled), 0.75);
    expect_batch_matches_scalar(f, batch, isa, mode);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CompiledSpmmDispatch, Avx2SparseLaneGroupsBitIdenticalToScalar) {
  expect_sparse_groups_match_scalar(SimdIsa::kAvx2, SimdMode::kAvx2);
}

TEST(CompiledSpmmDispatch, Avx512SparseLaneGroupsBitIdenticalToScalar) {
  expect_sparse_groups_match_scalar(SimdIsa::kAvx512, SimdMode::kAvx512);
}

TEST(CompiledSpmmDispatch, AutoBitIdenticalToScalarSerial) {
  const Fixture f(2404, wide_spec());
  SpmmBatch batch;
  batch.lanes = 48;
  batch.first_window = 3;
  batch.window_stride = 2;
  const SpmmRun scalar =
      run_compiled(f, batch, true, nullptr, SimdMode::kScalar);
  const SpmmRun any = run_compiled(f, batch, true, nullptr, SimdMode::kAuto);
  ASSERT_EQ(scalar.x, any.x);
  expect_stats_equal(scalar.stats, any.stats);
}

// A batch wider than one mask word would shift a uint64_t by >= 64 (UB)
// and scribble whatever the hardware returned into the masks, so the bound
// is a release-mode invariant on every entry point. kMaxSpmmLanes + 1 is
// the first lane count past the word.
TEST(CompiledSpmm, MalformedLaneCountsThrow) {
  const Fixture f(2505);
  const auto& part = f.set.part(0);
  for (const std::size_t lanes : {std::size_t{0}, kMaxSpmmLanes + 1,
                                  std::size_t{100000}}) {
    SpmmBatch batch;
    batch.lanes = lanes;
    batch.first_window = 0;
    batch.window_stride = 1;
    SpmmWindowState state;
    CompiledBatchCsr compiled;
    EXPECT_THROW(oracle::compute_spmm_state(part, f.spec, batch, state),
                 InvariantError)
        << lanes;
    EXPECT_THROW(
        compile_spmm_batch(part, f.spec, batch, state, compiled),
        InvariantError)
        << lanes;
  }
}

TEST(CompiledSpmm, EmptyLaneStaysZero) {
  // A lane pointing at an empty window must come back all-zero from the
  // compiled kernel exactly like the reference (buffers pre-zeroed).
  TemporalEdgeList events;
  for (int i = 0; i < 50; ++i) {
    events.add(static_cast<VertexId>(i % 5),
               static_cast<VertexId>((i + 1) % 5), i);
  }
  events.ensure_vertices(5);
  const WindowSpec spec{.t0 = 0, .delta = 49, .sw = 1000, .count = 2};
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
  const auto& part = set.part(0);
  SpmmBatch batch{.lanes = 2, .first_window = 0, .window_stride = 1};
  SpmmWindowState state;
  CompiledBatchCsr compiled;
  compile_spmm_batch(part, spec, batch, state, compiled);
  const std::size_t n = part.num_local();
  std::vector<double> x(n * 2, 0.5);  // garbage in inactive entries
  std::vector<double> scratch(n * 2, 0.25);
  pagerank_spmm(state, compiled, x, scratch, params_with(true));
  double lane0 = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_EQ(x[v * 2 + 1], 0.0);
    lane0 += x[v * 2 + 0];
  }
  EXPECT_NEAR(lane0, 1.0, 1e-9);
}

}  // namespace
}  // namespace pmpr
