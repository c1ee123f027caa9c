// Storage-kind differential: in-RAM, compressed-in-RAM, and out-of-core
// postmortem runs must produce bit-identical per-window rank vectors on
// every execution model. Comparisons use exact double equality — the
// chunk-streaming compile reproduces the raw compile's structures exactly,
// so the kernels execute the same floating-point sequence.
#include <gtest/gtest.h>

#include <vector>

#include "exec/postmortem_runner.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace pmpr {
namespace {

struct Scenario {
  TemporalEdgeList events;
  WindowSpec spec;
};

Scenario scenario() {
  Scenario s;
  s.events = test::random_events(77, 50, 3000, 30000);
  s.spec = WindowSpec::cover(0, 30000, 8000, 1500);
  return s;
}

PostmortemConfig base_config(KernelKind kernel, ParallelMode mode) {
  PostmortemConfig cfg;
  cfg.pr.tol = 1e-12;
  cfg.pr.max_iters = 300;
  cfg.kernel = kernel;
  cfg.mode = mode;
  cfg.num_multi_windows = 4;
  cfg.vector_length = 8;
  cfg.validate = true;
  return cfg;
}

void expect_same_series(const StoreAllSink& a, const StoreAllSink& b,
                        const char* label) {
  ASSERT_EQ(a.num_windows(), b.num_windows()) << label;
  for (std::size_t w = 0; w < a.num_windows(); ++w) {
    ASSERT_EQ(a.window(w), b.window(w)) << label << " window " << w;
  }
}

void expect_storage_kinds_agree(KernelKind kernel, ParallelMode mode,
                                const char* label) {
  const Scenario s = scenario();
  PostmortemConfig cfg = base_config(kernel, mode);
  // Several workers, so the parallel modes really run parts side by side.
  par::ThreadPool pool(4);
  cfg.pool = &pool;

  StoreAllSink in_ram(s.spec.count);
  cfg.storage = StorageKind::kInRam;
  run_postmortem(s.events, s.spec, in_ram, cfg);

  StoreAllSink compressed(s.spec.count);
  cfg.storage = StorageKind::kCompressed;
  run_postmortem(s.events, s.spec, compressed, cfg);
  expect_same_series(compressed, in_ram, label);

  StoreAllSink oocore(s.spec.count);
  cfg.storage = StorageKind::kOutOfCore;
  cfg.memory_budget_bytes = 0;  // harshest paging: one part at a time
  const RunResult result = run_postmortem(s.events, s.spec, oocore, cfg);
  expect_same_series(oocore, in_ram, label);
  EXPECT_GT(result.oocore_store_bytes, 0u) << label;
  EXPECT_GT(result.oocore_raw_bytes, result.oocore_store_bytes) << label;
  EXPECT_GT(result.oocore_resident_peak_bytes, 0u) << label;
  EXPECT_LE(result.oocore_resident_peak_bytes, result.oocore_store_bytes)
      << label;
}

TEST(StorageDifferential, SpmmPagerankMode) {
  expect_storage_kinds_agree(KernelKind::kSpmm, ParallelMode::kPagerank,
                             "spmm/pagerank");
}

TEST(StorageDifferential, SpmvPagerankMode) {
  expect_storage_kinds_agree(KernelKind::kSpmv, ParallelMode::kPagerank,
                             "spmv/pagerank");
}

TEST(StorageDifferential, SpmmWindowMode) {
  expect_storage_kinds_agree(KernelKind::kSpmm, ParallelMode::kWindow,
                             "spmm/window");
}

TEST(StorageDifferential, SpmvNestedMode) {
  expect_storage_kinds_agree(KernelKind::kSpmv, ParallelMode::kNested,
                             "spmv/nested");
}

TEST(StorageDifferential, SpmmNestedMode) {
  expect_storage_kinds_agree(KernelKind::kSpmm, ParallelMode::kNested,
                             "spmm/nested");
}

TEST(StorageDifferential, TightBudgetEvictsAndStaysExact) {
  const Scenario s = scenario();
  PostmortemConfig cfg = base_config(KernelKind::kSpmm,
                                     ParallelMode::kPagerank);
  cfg.num_multi_windows = 8;

  StoreAllSink in_ram(s.spec.count);
  cfg.storage = StorageKind::kInRam;
  run_postmortem(s.events, s.spec, in_ram, cfg);

  obs::set_counters_enabled(true);
  StoreAllSink oocore(s.spec.count);
  cfg.storage = StorageKind::kOutOfCore;
  cfg.memory_budget_bytes = 0;
  const RunResult result = run_postmortem(s.events, s.spec, oocore, cfg);
  expect_same_series(oocore, in_ram, "tight-budget");
  // 8 parts under a one-part budget: the part-major sweep must evict.
  EXPECT_GE(result.counters[obs::Counter::kPartsEvicted], 6u);
}

TEST(StorageDifferential, PrebuiltRejectsOutOfCore) {
  const Scenario s = scenario();
  const MultiWindowSet set = MultiWindowSet::build(s.events, s.spec, 2);
  PostmortemConfig cfg = base_config(KernelKind::kSpmm,
                                     ParallelMode::kPagerank);
  cfg.storage = StorageKind::kOutOfCore;
  StoreAllSink sink(s.spec.count);
  EXPECT_THROW(run_postmortem_prebuilt(set, sink, cfg), InvariantError);
}

TEST(StorageDifferential, PrebuiltHonorsCompressedSets) {
  const Scenario s = scenario();
  PostmortemConfig cfg = base_config(KernelKind::kSpmm,
                                     ParallelMode::kPagerank);
  const MultiWindowSet raw = MultiWindowSet::build(s.events, s.spec, 3);
  StoreAllSink ref(s.spec.count);
  run_postmortem_prebuilt(raw, ref, cfg);

  MultiWindowSet packed = MultiWindowSet::build(s.events, s.spec, 3);
  packed.compress_in_place();
  StoreAllSink sink(s.spec.count);
  const RunResult result = run_postmortem_prebuilt(packed, sink, cfg);
  expect_same_series(sink, ref, "prebuilt-compressed");
  EXPECT_GT(result.representation_bytes, 0u);
}

TEST(StorageDifferential, PagedRunnerEntryPoint) {
  const Scenario s = scenario();
  PostmortemConfig cfg = base_config(KernelKind::kSpmm,
                                     ParallelMode::kPagerank);
  StoreAllSink ref(s.spec.count);
  cfg.storage = StorageKind::kInRam;
  run_postmortem(s.events, s.spec, ref, cfg);

  PagedMultiWindowSet::Options opts;
  opts.num_parts = 4;
  const auto paged = PagedMultiWindowSet::build(s.events, s.spec, opts);
  cfg.storage = StorageKind::kOutOfCore;
  StoreAllSink sink(s.spec.count);
  const RunResult result = run_postmortem_paged(*paged, sink, cfg);
  expect_same_series(sink, ref, "paged-entry");
  EXPECT_EQ(result.oocore_store_bytes, paged->stats().store_bytes);
}

}  // namespace
}  // namespace pmpr
