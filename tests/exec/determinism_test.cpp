// Determinism and thread-count independence of the postmortem driver.
//
// Nothing the scheduler decides reaches the ranks: pull-style kernels sum
// each vertex's contributions in a fixed order, parallel_reduce combines its
// leaves in range order along a fixed split tree, and the partial-init carry lives in one chain per
// part rather than in a thread. Repeated runs on one pool are therefore
// bitwise identical in every mode, and window mode (serial kernels) is
// bitwise identical across pool sizes too.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/postmortem_runner.hpp"
#include "test_helpers.hpp"

namespace pmpr {
namespace {

struct Scenario {
  TemporalEdgeList events = test::random_events(71, 50, 3000, 20000);
  WindowSpec spec = WindowSpec::cover(0, 20000, 5000, 900);
};

std::vector<std::vector<std::pair<VertexId, double>>> run_all(
    const Scenario& s, PostmortemConfig cfg) {
  StoreAllSink sink(s.spec.count);
  run_postmortem(s.events, s.spec, sink, cfg);
  std::vector<std::vector<std::pair<VertexId, double>>> out;
  out.reserve(s.spec.count);
  for (std::size_t w = 0; w < s.spec.count; ++w) {
    out.push_back(sink.window(w));
  }
  return out;
}

void expect_bitwise_equal(
    const std::vector<std::vector<std::pair<VertexId, double>>>& a,
    const std::vector<std::vector<std::pair<VertexId, double>>>& b,
    const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t w = 0; w < a.size(); ++w) {
    ASSERT_EQ(a[w], b[w]) << label << " window " << w;
  }
}

TEST(Determinism, RepeatedRunsBitwiseIdentical) {
  Scenario s;
  par::ThreadPool pool(3);
  for (const auto kernel : {KernelKind::kSpmv, KernelKind::kSpmm}) {
    for (const auto mode : {ParallelMode::kWindow, ParallelMode::kPagerank,
                            ParallelMode::kNested}) {
      PostmortemConfig cfg;
      cfg.pool = &pool;
      cfg.mode = mode;
      cfg.kernel = kernel;
      const std::string label =
          std::string(to_string(kernel)) + "/" + std::string(to_string(mode));
      expect_bitwise_equal(run_all(s, cfg), run_all(s, cfg), label);
    }
  }
}

TEST(Determinism, PoolSizeDoesNotChangeResults) {
  Scenario s;
  par::ThreadPool pool1(1);
  par::ThreadPool pool2(2);
  par::ThreadPool pool4(4);
  for (const auto mode : {ParallelMode::kWindow, ParallelMode::kPagerank,
                          ParallelMode::kNested}) {
    PostmortemConfig cfg;
    cfg.mode = mode;
    cfg.pool = &pool1;
    const auto a = run_all(s, cfg);
    for (par::ThreadPool* pool : {&pool2, &pool4}) {
      cfg.pool = pool;
      const auto b = run_all(s, cfg);
      const std::string label = std::string(to_string(mode)) + " pool " +
                                std::to_string(pool->num_threads());
      if (mode == ParallelMode::kWindow) {
        // Serial kernels: the pool only decides where a part's chain runs.
        expect_bitwise_equal(a, b, label);
        continue;
      }
      // Under the auto and static partitioners the in-kernel reduction
      // leaves follow pool size, so sums associate differently; both runs
      // converge to the same solution within tolerance.
      for (std::size_t w = 0; w < a.size(); ++w) {
        std::vector<double> da(s.events.num_vertices(), 0.0);
        std::vector<double> db(s.events.num_vertices(), 0.0);
        for (const auto& [v, x] : a[w]) da[v] = x;
        for (const auto& [v, x] : b[w]) db[v] = x;
        ASSERT_LT(test::linf_diff(da, db), 1e-7) << label << " window " << w;
      }
    }
  }
}

TEST(Determinism, SequentialModeIterationCountsStable) {
  Scenario s;
  par::ThreadPool pool(2);
  PostmortemConfig cfg;
  cfg.pool = &pool;
  cfg.mode = ParallelMode::kPagerank;  // windows strictly in order
  NullSink sink;
  const RunResult a = run_postmortem(s.events, s.spec, sink, cfg);
  const RunResult b = run_postmortem(s.events, s.spec, sink, cfg);
  EXPECT_EQ(a.total_iterations, b.total_iterations);
  EXPECT_EQ(a.iterations_per_window, b.iterations_per_window);
}

}  // namespace
}  // namespace pmpr
