// Kernel microbenchmarks (google-benchmark): the building blocks whose
// costs explain the figure-level results — temporal CSR construction,
// per-window state scatter, one SpMV iteration vs one SpMM iteration
// (amortized per window), streaming graph mutation, and window-graph
// reconstruction (the offline model's per-window cost).
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/counters.hpp"
#include "oracle/reference_kernels.hpp"
#include "pagerank/batch_csr.hpp"
#include "pagerank/spmm_temporal.hpp"
#include "pagerank/spmv_temporal.hpp"
#include "streaming/dynamic_graph.hpp"

namespace {

using namespace pmpr;

/// Overridable before the first MicroFixture::get() via --scale= (the
/// bench.smoke ctest target shrinks the dataset for a fast sanity pass).
double g_scale = 0.05;  // NOLINT(*avoid-non-const-global*)

/// Set by --counters (implied by --json=): record telemetry counter deltas
/// around the kernel benches. Off by default so plain timing runs measure
/// the disabled-telemetry fast path.
bool g_counters = false;  // NOLINT(*avoid-non-const-global*)

/// Per-benchmark telemetry deltas, averaged per benchmark iteration —
/// "what does one measured traversal actually do" (edges touched, tasks,
/// steals). Filled by the kernel benches, consumed by emit_json.
std::vector<std::pair<std::string, obs::CounterSnapshot>>&
bench_counter_records() {
  static std::vector<std::pair<std::string, obs::CounterSnapshot>> records;
  return records;
}

obs::CounterSnapshot counters_before() {
  return g_counters ? obs::counters_snapshot() : obs::CounterSnapshot{};
}

void counters_after(const char* name, const benchmark::State& state,
                    const obs::CounterSnapshot& before) {
  if (!g_counters || state.iterations() == 0) return;
  obs::CounterSnapshot delta = obs::counters_snapshot().delta_since(before);
  for (auto& v : delta.values) {
    v /= static_cast<std::uint64_t>(state.iterations());
  }
  bench_counter_records().emplace_back(name, delta);
}

struct MicroFixture {
  TemporalEdgeList events;
  WindowSpec spec;
  MultiWindowSet set;

  MicroFixture()
      : events(gen::generate(
            gen::scaled(gen::dataset_by_name("wiki-talk"), g_scale), 42)),
        spec(bench::last_windows(events, 90 * duration::kDay, 86'400, 64)),
        set(MultiWindowSet::build(events, spec, 2)) {}

  static const MicroFixture& get() {
    static MicroFixture fixture;
    return fixture;
  }
};

/// The SpMM batch every SpMM micro-bench times: 16 lanes striding the
/// part's windows (the paper's preferred vector length).
SpmmBatch spmm16_batch(const MultiWindowGraph& part) {
  SpmmBatch batch;
  batch.lanes = std::min<std::size_t>(16, part.num_windows);
  batch.first_window = part.first_window;
  batch.window_stride =
      std::max<std::size_t>(1, part.num_windows / batch.lanes);
  return batch;
}

void BM_TemporalCsrBuild(benchmark::State& state) {
  const auto& f = MicroFixture::get();
  const auto slice = f.events.slice(f.spec.start(0), f.spec.end(16));
  for (auto _ : state) {
    TemporalCsr g = TemporalCsr::build(slice, f.events.num_vertices(), true);
    benchmark::DoNotOptimize(g.num_entries());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(slice.size()));
}
BENCHMARK(BM_TemporalCsrBuild);

void BM_WindowGraphBuild(benchmark::State& state) {
  const auto& f = MicroFixture::get();
  const auto slice = f.events.slice(f.spec.start(0), f.spec.end(0));
  for (auto _ : state) {
    WindowGraph g = build_window_graph(slice, f.events.num_vertices());
    benchmark::DoNotOptimize(g.num_edges);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(slice.size()));
}
BENCHMARK(BM_WindowGraphBuild);

void BM_WindowStateScatter(benchmark::State& state) {
  const auto& f = MicroFixture::get();
  const auto& part = f.set.part(0);
  const std::size_t w = part.first_window;
  WindowState ws;
  for (auto _ : state) {
    oracle::compute_window_state(part, f.spec.start(w), f.spec.end(w), ws);
    benchmark::DoNotOptimize(ws.num_active);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(part.num_events));
}
BENCHMARK(BM_WindowStateScatter);

void BM_SpmvIteration(benchmark::State& state) {
  const auto& f = MicroFixture::get();
  const auto& part = f.set.part(0);
  const std::size_t w = part.first_window;
  WindowState ws;
  oracle::compute_window_state(part, f.spec.start(w), f.spec.end(w), ws);
  std::vector<double> x(part.num_local());
  std::vector<double> scratch(part.num_local());
  full_init(ws.active, ws.num_active, x);
  PagerankParams params;
  params.max_iters = 1;  // time exactly one traversal
  params.tol = 0.0;
  const obs::CounterSnapshot before = counters_before();
  for (auto _ : state) {
    oracle::pagerank_window_spmv(part, f.spec.start(w), f.spec.end(w), ws, x,
                                 scratch, params);
    benchmark::DoNotOptimize(x[0]);
  }
  counters_after("BM_SpmvIteration", state, before);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(part.num_events));
}
BENCHMARK(BM_SpmvIteration);

void BM_SpmvIterationCompiled(benchmark::State& state) {
  const auto& f = MicroFixture::get();
  const auto& part = f.set.part(0);
  const std::size_t w = part.first_window;
  WindowState ws;
  CompiledWindowCsr compiled;
  compile_window(part, f.spec.start(w), f.spec.end(w), ws, compiled);
  std::vector<double> x(part.num_local());
  std::vector<double> scratch(part.num_local());
  full_init(ws.active, ws.num_active, x);
  PagerankParams params;
  params.max_iters = 1;
  params.tol = 0.0;
  const obs::CounterSnapshot before = counters_before();
  for (auto _ : state) {
    pagerank_window_spmv(ws, compiled, x, scratch, params);
    benchmark::DoNotOptimize(x[0]);
  }
  counters_after("BM_SpmvIterationCompiled", state, before);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(part.num_events));
}
BENCHMARK(BM_SpmvIterationCompiled);

void BM_SpmmIteration16(benchmark::State& state) {
  const auto& f = MicroFixture::get();
  const auto& part = f.set.part(0);
  const SpmmBatch batch = spmm16_batch(part);
  SpmmWindowState ws;
  oracle::compute_spmm_state(part, f.spec, batch, ws);
  const std::size_t n = part.num_local();
  std::vector<double> x(n * batch.lanes, 1.0 / static_cast<double>(n));
  std::vector<double> scratch(n * batch.lanes);
  PagerankParams params;
  params.max_iters = 1;
  params.tol = 0.0;
  const obs::CounterSnapshot before = counters_before();
  for (auto _ : state) {
    oracle::pagerank_spmm(part, f.spec, batch, ws, x, scratch, params);
    benchmark::DoNotOptimize(x[0]);
  }
  counters_after("BM_SpmmIteration16", state, before);
  // One traversal advances `lanes` windows: credit lanes x events.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(part.num_events) *
                          static_cast<std::int64_t>(batch.lanes));
}
BENCHMARK(BM_SpmmIteration16);

void BM_SpmmIteration16Compiled(benchmark::State& state) {
  const auto& f = MicroFixture::get();
  const auto& part = f.set.part(0);
  const SpmmBatch batch = spmm16_batch(part);
  SpmmWindowState ws;
  CompiledBatchCsr compiled;
  compile_spmm_batch(part, f.spec, batch, ws, compiled);
  const std::size_t n = part.num_local();
  std::vector<double> x(n * batch.lanes, 1.0 / static_cast<double>(n));
  std::vector<double> scratch(n * batch.lanes);
  PagerankParams params;
  params.max_iters = 1;
  params.tol = 0.0;
  const obs::CounterSnapshot before = counters_before();
  for (auto _ : state) {
    pagerank_spmm(ws, compiled, x, scratch, params);
    benchmark::DoNotOptimize(x[0]);
  }
  counters_after("BM_SpmmIteration16Compiled", state, before);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(part.num_events) *
                          static_cast<std::int64_t>(batch.lanes));
}
BENCHMARK(BM_SpmmIteration16Compiled);

void BM_SpmmCompile16(benchmark::State& state) {
  // The one-off cost the compiled iteration amortizes: building the
  // run-compressed adjacency + lane masks for a 16-lane batch.
  const auto& f = MicroFixture::get();
  const auto& part = f.set.part(0);
  const SpmmBatch batch = spmm16_batch(part);
  SpmmWindowState ws;
  CompiledBatchCsr compiled;
  for (auto _ : state) {
    compile_spmm_batch(part, f.spec, batch, ws, compiled);
    benchmark::DoNotOptimize(compiled.nbr.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(part.num_events));
}
BENCHMARK(BM_SpmmCompile16);

void BM_StreamingWindowAdvance(benchmark::State& state) {
  const auto& f = MicroFixture::get();
  for (auto _ : state) {
    streaming::DynamicGraph g(f.events.num_vertices());
    g.insert_batch(f.events.slice(f.spec.start(0), f.spec.end(0)));
    g.remove_batch(f.events.slice(f.spec.start(0), f.spec.start(1) - 1));
    g.insert_batch(f.events.slice(f.spec.end(0) + 1, f.spec.end(1)));
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_StreamingWindowAdvance);

void BM_MultiWindowSetBuild(benchmark::State& state) {
  const auto& f = MicroFixture::get();
  for (auto _ : state) {
    MultiWindowSet set = MultiWindowSet::build(f.events, f.spec, 6);
    benchmark::DoNotOptimize(set.total_events());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.events.size()));
}
BENCHMARK(BM_MultiWindowSetBuild);

/// Console reporter that additionally records every run so main() can emit
/// machine-readable JSON (--json=PATH) next to the usual table.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Captured {
    std::string name;
    double ns_per_iteration = 0.0;
    double items_per_second = 0.0;  // 0 when the bench sets no item count
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      Captured c;
      c.name = run.benchmark_name();
      if (run.iterations > 0) {
        c.ns_per_iteration = run.real_accumulated_time /
                             static_cast<double>(run.iterations) * 1e9;
      }
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) c.items_per_second = it->second.value;
      runs_.push_back(std::move(c));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::vector<Captured>& runs() const { return runs_; }

 private:
  std::vector<Captured> runs_;
};

/// Emits `BENCH_kernels.json`-style output: one record per benchmark with
/// ns/iteration, throughput, ns/item (= ns per edge per iteration for the
/// kernel benches, where items = events x lanes), and — for the compiled
/// kernels — the speedup over their reference counterpart.
bool emit_json(const std::string& path,
               const std::vector<CapturingReporter::Captured>& runs) {
  bench::JsonEmitter json;
  for (const auto& run : runs) {
    json.set(run.name, "ns_per_iteration", run.ns_per_iteration);
    if (run.items_per_second > 0.0) {
      json.set(run.name, "items_per_second", run.items_per_second);
      json.set(run.name, "ns_per_item", 1e9 / run.items_per_second);
    }
  }
  const std::pair<const char*, const char*> pairs[] = {
      {"BM_SpmvIterationCompiled", "BM_SpmvIteration"},
      {"BM_SpmmIteration16Compiled", "BM_SpmmIteration16"},
  };
  for (const auto& [compiled, reference] : pairs) {
    if (!json.has(compiled) || !json.has(reference)) continue;
    const double ref_ns = json.get(reference, "ns_per_iteration");
    const double cmp_ns = json.get(compiled, "ns_per_iteration");
    // Same fixture and item count per iteration, so the time ratio is the
    // edges*lanes/s throughput ratio.
    if (cmp_ns > 0.0) {
      json.set(compiled, "speedup_vs_reference", ref_ns / cmp_ns);
    }
  }
  // Per-iteration telemetry averages for the kernel benches (only when
  // counters were on, i.e. --counters or --json).
  for (const auto& [name, delta] : bench_counter_records()) {
    for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
      json.set_counter(name,
                       std::string(obs::to_string(
                           static_cast<obs::Counter>(i))),
                       delta.values[i]);
    }
  }
  return json.write(path);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our flags before google-benchmark parses the rest.
  std::string json_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      g_scale = std::stod(argv[i] + 8);
    } else if (std::strcmp(argv[i], "--counters") == 0) {
      g_counters = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  // --json implies counters: the emitted records carry a "counters" object.
  if (!json_path.empty()) g_counters = true;
  if (g_counters) obs::set_counters_enabled(true);
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             passthrough.data())) {
    return 1;
  }
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() && !emit_json(json_path, reporter.runs())) {
    std::cerr << "failed to write " << json_path << "\n";
    return 1;
  }
  return 0;
}
