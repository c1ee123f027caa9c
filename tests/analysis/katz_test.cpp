#include "analysis/katz.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace pmpr::analysis {
namespace {

/// Dense reference: x = beta·1_active + a·AᵀX iterated.
std::vector<double> brute_katz(const TemporalEdgeList& events, Timestamp ts,
                               Timestamp te, VertexId n,
                               const KatzParams& p) {
  const auto edges = test::brute_window_edges(events, ts, te);
  std::vector<std::uint8_t> active(n, 0);
  for (const auto& [u, v] : edges) active[u] = active[v] = 1;
  std::vector<double> x(n, 0.0);
  for (VertexId v = 0; v < n; ++v) x[v] = active[v] ? p.beta : 0.0;
  std::vector<double> next(n, 0.0);
  for (int iter = 0; iter < p.max_iters; ++iter) {
    for (VertexId v = 0; v < n; ++v) next[v] = active[v] ? p.beta : 0.0;
    for (const auto& [u, v] : edges) next[v] += p.attenuation * x[u];
    double diff = 0.0;
    for (VertexId v = 0; v < n; ++v) diff += std::abs(next[v] - x[v]);
    x.swap(next);
    if (diff < p.tol) break;
  }
  return x;
}

KatzParams tight() {
  KatzParams p;
  p.tol = 1e-12;
  p.max_iters = 500;
  return p;
}

TEST(Katz, MatchesBruteForcePerWindow) {
  const TemporalEdgeList events = test::random_events(13, 40, 1500, 20000);
  const WindowSpec spec = WindowSpec::cover(0, 20000, 5000, 1500);
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 2);
  for (std::size_t w = 0; w < spec.count; ++w) {
    const auto& part = set.part_for_window(w);
    WindowState state;
    CompiledWindowCsr compiled;
    compile_window(part, spec.start(w), spec.end(w), state, compiled);
    std::vector<double> x(part.num_local(), 0.0);
    std::vector<double> scratch(part.num_local());
    for (std::size_t v = 0; v < x.size(); ++v) {
      x[v] = state.active[v] ? 1.0 : 0.0;
    }
    katz_window(state, compiled, x, scratch, tight());

    const auto ref = brute_katz(events, spec.start(w), spec.end(w),
                                events.num_vertices(), tight());
    for (VertexId v = 0; v < part.num_local(); ++v) {
      ASSERT_NEAR(x[v], ref[part.global_of(v)], 1e-8)
          << "w=" << w << " v=" << part.global_of(v);
    }
  }
}

TEST(Katz, StarCenterScoresHighest) {
  TemporalEdgeList events;
  for (VertexId v = 1; v <= 5; ++v) events.add(v, 0, 10);
  const WindowSpec spec{.t0 = 0, .delta = 20, .sw = 1, .count = 1};
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
  const auto summaries = katz_over_windows(set, tight());
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].top_vertex, 0u);
  EXPECT_GT(summaries[0].top_score, 1.0);
}

TEST(Katz, WarmStartConvergesToSameValues) {
  const TemporalEdgeList events = test::random_events(19, 50, 3000, 20000);
  const WindowSpec spec = WindowSpec::cover(0, 20000, 6000, 800);
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
  const auto warm = katz_over_windows(set, tight(), nullptr, true);
  const auto cold = katz_over_windows(set, tight(), nullptr, false);
  ASSERT_EQ(warm.size(), cold.size());
  std::uint64_t warm_iters = 0;
  std::uint64_t cold_iters = 0;
  for (std::size_t w = 0; w < warm.size(); ++w) {
    EXPECT_EQ(warm[w].top_vertex, cold[w].top_vertex) << "window " << w;
    EXPECT_NEAR(warm[w].top_score, cold[w].top_score, 1e-6) << "window " << w;
    warm_iters += static_cast<std::uint64_t>(warm[w].iterations);
    cold_iters += static_cast<std::uint64_t>(cold[w].iterations);
  }
  EXPECT_LE(warm_iters, cold_iters);
}

TEST(Katz, ParallelKernelMatchesSequential) {
  const TemporalEdgeList events = test::random_events(23, 60, 2500, 10000);
  const WindowSpec spec = WindowSpec::cover(0, 10000, 3000, 1000);
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
  par::ForOptions opts{par::Partitioner::kSimple, 8, nullptr};
  const auto seq = katz_over_windows(set, tight(), nullptr);
  const auto parl = katz_over_windows(set, tight(), &opts);
  for (std::size_t w = 0; w < seq.size(); ++w) {
    EXPECT_EQ(seq[w].top_vertex, parl[w].top_vertex);
    EXPECT_NEAR(seq[w].top_score, parl[w].top_score, 1e-10);
  }
}

TEST(Katz, CompressedSetBitIdenticalToRaw) {
  // Katz traverses the compiled window, which streams compressed parts, so
  // compression must not change a single bit of any window's summary.
  const TemporalEdgeList events = test::random_events(29, 50, 3000, 20000);
  const WindowSpec spec = WindowSpec::cover(0, 20000, 6000, 800);
  const MultiWindowSet raw = MultiWindowSet::build(events, spec, 3);
  MultiWindowSet packed = MultiWindowSet::build(events, spec, 3);
  packed.compress_in_place(/*target_chunk_entries=*/64);
  const auto want = katz_over_windows(raw, tight());
  const auto got = katz_over_windows(packed, tight());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t w = 0; w < want.size(); ++w) {
    EXPECT_EQ(got[w].iterations, want[w].iterations) << "window " << w;
    EXPECT_EQ(got[w].top_vertex, want[w].top_vertex) << "window " << w;
    EXPECT_EQ(got[w].top_score, want[w].top_score) << "window " << w;
  }
}

TEST(Katz, EmptyWindowZeroScores) {
  TemporalEdgeList events;
  events.add(0, 1, 100);
  events.ensure_vertices(3);
  const WindowSpec spec{.t0 = 0, .delta = 10, .sw = 1, .count = 1};
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
  WindowState state;
  CompiledWindowCsr compiled;
  compile_window(set.part(0), 0, 10, state, compiled);
  std::vector<double> x(set.part(0).num_local(), 5.0);
  std::vector<double> scratch(x.size());
  const KatzStats stats = katz_window(state, compiled, x, scratch, tight());
  EXPECT_EQ(stats.iterations, 0);
  for (const double v : x) EXPECT_EQ(v, 0.0);
}

}  // namespace
}  // namespace pmpr::analysis
