#include "exec/offline_runner.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <utility>

#include "obs/counters.hpp"
#include "obs/flightrec.hpp"
#include "obs/histogram.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace pmpr {

namespace {

/// Rough resident bytes of one offline window's working set: the window
/// CSR (row pointers + columns), degrees, activity, and the two PageRank
/// vectors. An estimate for RunResult::peak_memory_bytes, not a
/// measurement.
std::size_t window_bytes(const WindowGraph& g) {
  return (g.num_vertices + 1) * sizeof(std::size_t)     // row_ptr
         + g.in.num_edges() * sizeof(VertexId)          // columns
         + g.num_vertices * sizeof(std::uint32_t)       // out_degree
         + g.num_vertices * sizeof(std::uint8_t)        // is_active
         + 2 * g.num_vertices * sizeof(double);         // x + scratch
}

/// Builds window `w`'s graph and runs a cold-start PageRank into `x`.
/// Returns the kernel stats; `memory_bytes` gets the window's estimated
/// working-set size.
PagerankStats solve_window(const TemporalEdgeList& events,
                           const WindowSpec& spec, std::size_t w,
                           const OfflineOptions& opts,
                           const par::ForOptions* kernel_par,
                           std::vector<double>& x,
                           std::vector<double>& scratch,
                           double& build_seconds, double& compute_seconds,
                           std::size_t& memory_bytes) {
  Timer build_timer;
  PMPR_TRACE_SPAN("offline.window");
  const WindowGraph g = [&] {
    PMPR_PHASE("window.build", obs::Phase::kBuild, w);
    const auto slice = events.slice(spec.start(w), spec.end(w));
    return build_window_graph(slice, events.num_vertices());
  }();
  build_seconds = build_timer.seconds();
  if (opts.validate) g.validate();
  memory_bytes = window_bytes(g);

  Timer compute_timer;
  x.resize(g.num_vertices);
  scratch.resize(g.num_vertices);
  {
    PMPR_PHASE("window.init", obs::Phase::kInit, w);
    full_init(g.is_active, g.num_active, x);
  }
  PMPR_PHASE("window.iterate", obs::Phase::kIterate, w);
  PagerankStats stats = pagerank(g, x, scratch, opts.pr, kernel_par);
  compute_seconds = compute_timer.seconds();
  obs::count(obs::Counter::kWindowsProcessed);
  obs::fr_record(obs::FrEvent::kWindowDone, nullptr, w, stats.iterations);
  return stats;
}

}  // namespace

RunResult run_offline(const TemporalEdgeList& events, const WindowSpec& spec,
                      ResultSink& sink, const OfflineOptions& opts) {
  spec.validate();
  PMPR_CHECK_MSG(events.is_sorted_by_time(),
                 "run_offline slices events per window and requires them "
                 "time-sorted; call sort_by_time() first");
  RunResult result;
  result.simd_isa = std::string(to_string(resolve_simd(opts.simd)));
  result.num_windows = spec.count;
  result.iterations_per_window.assign(spec.count, 0);
  result.final_residuals.assign(spec.count, 0.0);
  result.residual_trajectories.assign(spec.count, {});
  // Per-window working-set estimates; distinct slots, no synchronization
  // needed even when windows run in parallel.
  std::vector<std::size_t> window_memory(spec.count, 0);

  const obs::CounterSnapshot before = obs::counters_snapshot();
  const obs::HistogramSnapshot hist_before = obs::histograms_snapshot();
  PMPR_TRACE_SPAN("offline.run");

  par::ForOptions for_opts{opts.partitioner, opts.grain, opts.pool};

  auto record = [&](std::size_t w, PagerankStats stats) {
    result.iterations_per_window[w] = stats.iterations;
    result.final_residuals[w] = stats.final_residual;
    result.residual_trajectories[w] = std::move(stats.residuals);
  };

  if (opts.parallel_windows) {
    // Window-level fan-out: each window is fully independent (cold start,
    // own graph), so this is embarrassingly parallel. Phase times are
    // summed across windows (total work, not wall time).
    std::atomic<std::int64_t> build_ns{0};
    std::atomic<std::int64_t> compute_ns{0};
    par::parallel_for(0, spec.count, for_opts, [&](std::size_t w) {
      std::vector<double> x;
      std::vector<double> scratch;
      double build = 0.0;
      double compute = 0.0;
      PagerankStats stats =
          solve_window(events, spec, w, opts, /*kernel_par=*/nullptr, x,
                       scratch, build, compute, window_memory[w]);
      record(w, std::move(stats));
      {
        PMPR_PHASE("window.sink", obs::Phase::kSink, w);
        sink.consume_dense(w, x);
      }
      // relaxed (both): commutative time totals, read only after the
      // parallel_for join publishes them.
      build_ns.fetch_add(static_cast<std::int64_t>(build * 1e9),
                         std::memory_order_relaxed);
      compute_ns.fetch_add(static_cast<std::int64_t>(compute * 1e9),
                           std::memory_order_relaxed);  // relaxed: as above
    });
    result.build_seconds = static_cast<double>(build_ns.load()) * 1e-9;
    result.compute_seconds = static_cast<double>(compute_ns.load()) * 1e-9;
  } else {
    const par::ForOptions* kernel_par =
        opts.parallel_kernel ? &for_opts : nullptr;
    std::vector<double> x;
    std::vector<double> scratch;
    for (std::size_t w = 0; w < spec.count; ++w) {
      double build = 0.0;
      double compute = 0.0;
      PagerankStats stats = solve_window(events, spec, w, opts, kernel_par, x,
                                         scratch, build, compute,
                                         window_memory[w]);
      record(w, std::move(stats));
      {
        PMPR_PHASE("window.sink", obs::Phase::kSink, w);
        sink.consume_dense(w, x);
      }
      result.build_seconds += build;
      result.compute_seconds += compute;
    }
  }

  for (const int iters : result.iterations_per_window) {
    result.total_iterations += static_cast<std::uint64_t>(iters);
  }
  // Peak estimate: the largest single window when sequential; with
  // parallel_windows up to `threads` windows are resident at once, so sum
  // the largest `threads` estimates.
  std::sort(window_memory.begin(), window_memory.end(),
            std::greater<std::size_t>());
  std::size_t resident = opts.parallel_windows
                             ? (opts.pool != nullptr
                                    ? opts.pool->num_threads()
                                    : par::ThreadPool::global().num_threads())
                             : 1;
  resident = std::min(resident, window_memory.size());
  for (std::size_t i = 0; i < resident; ++i) {
    result.peak_memory_bytes += window_memory[i];
  }
  result.counters = obs::counters_snapshot().delta_since(before);
  result.histograms = obs::histograms_snapshot().delta_since(hist_before);
  return result;
}

}  // namespace pmpr
