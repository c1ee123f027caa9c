// Curated perf-regression suite (ctest target bench.regression, dev
// workflow ci/bench_compare.py): one binary running a fixed set of
// representative cases — the Fig. 5 execution-model comparison, the Fig. 6
// partial-init ablation, the Fig. 8 vector-length sweep, and the SpMV/SpMM
// kernel micro-iterations — and emitting BENCH_suite.json with per-case
// timings, latency-histogram percentiles, and counter-derived rates.
//
// The JSON is the input half of the regression gate: commit a run as
// ci/bench_baseline.json, then diff later runs against it with
//   python3 ci/bench_compare.py build/BENCH_suite.json ci/bench_baseline.json
// Cases share one wiki-talk surrogate (scaled by --scale) so the whole
// suite stays laptop-fast; the comparator refuses to diff runs whose
// meta.scale disagrees.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "oracle/reference_kernels.hpp"
#include "pagerank/batch_csr.hpp"
#include "pagerank/pagerank.hpp"
#include "pagerank/spmm_temporal.hpp"
#include "pagerank/spmv_temporal.hpp"
#include "util/stats.hpp"

using namespace pmpr;
using namespace pmpr::bench;

namespace {

/// Best (minimum) of `repeats` evaluations of `fn` (which returns
/// seconds). Min, not median: for regression gating the most reproducible
/// statistic is the least-perturbed run — noise only ever adds time.
double best_seconds(const std::int64_t repeats, auto&& fn) {
  double best = fn();
  for (std::int64_t r = 1; r < repeats; ++r) best = std::min(best, fn());
  return best;
}

/// The 16-lane SpMM batch the micro cases time (clamped to the part's
/// window count at tiny scales).
SpmmBatch spmm16_batch(const MultiWindowGraph& part) {
  SpmmBatch batch;
  batch.lanes = std::min<std::size_t>(16, part.num_windows);
  batch.first_window = part.first_window;
  batch.window_stride =
      std::max<std::size_t>(1, part.num_windows / batch.lanes);
  return batch;
}

/// `count` windows with the same geometry as the 16-lane micro case
/// (90-day delta, one-day slide, anchored at the end of the data) so
/// ns_per_lane is comparable across batch widths. Used by the 64-lane
/// micro case — the regular cases cap windows at --max-windows, which
/// could leave part of a 64-lane batch empty.
WindowSpec wide_lane_spec(const TemporalEdgeList& events, std::size_t count) {
  return last_windows(events, 90 * duration::kDay, 86'400, count);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts("Curated perf-regression suite -> BENCH_suite.json");
  BenchArgs args;
  args.scale = 0.02;
  args.json = "BENCH_suite.json";
  std::int64_t max_windows = 64;
  // 200 timed iterations keeps the min-statistic stable to a few percent
  // on a busy machine (50 left the SpMM case ~1.6x noisy).
  std::int64_t micro_iters = 200;
  args.attach(opts);
  opts.add("max-windows", &max_windows, "cap on windows per configuration");
  opts.add("micro-iters", &micro_iters,
           "timed iterations per kernel micro case");
  if (!opts.parse(argc, argv)) return opts.saw_help() ? 0 : 1;

  // The suite reads counters and phase histograms, so both gates go on for
  // the whole run; the disabled fast path has its own differential test.
  obs::set_counters_enabled(true);
  obs::set_histograms_enabled(true);

  JsonEmitter json;
  json.set("meta", "schema_version", 1.0);
  json.set("meta", "scale", args.scale);
  json.set("meta", "repeats", static_cast<double>(args.repeats));
  json.set("meta", "max_windows", static_cast<double>(max_windows));

  const TemporalEdgeList events = load_surrogate("wiki-talk", args);
  using duration::kDay;
  const WindowSpec spec = WindowSpec::cover_capped(
      events.min_time(), events.max_time(), 90 * kDay, 259'200,
      static_cast<std::size_t>(max_windows));
  const double windows = static_cast<double>(spec.count);

  Table table("Perf-regression suite (wiki-talk surrogate)",
              {"case", "metric", "value"});
  const auto emit = [&](const std::string& rec, const std::string& field,
                        double value) {
    json.set(rec, field, value);
    table.add_row({rec, field, Table::fmt(value, 3)});
  };

  // --- fig5: execution-model wall time --------------------------------
  {
    const double secs = best_seconds(
        args.repeats, [&] { return time_offline(events, spec); });
    emit("fig5.offline", "seconds", secs);
    emit("fig5.offline", "ns_per_window", secs * 1e9 / windows);
  }
  {
    const double secs = best_seconds(
        args.repeats, [&] { return time_streaming(events, spec); });
    emit("fig5.streaming", "seconds", secs);
    emit("fig5.streaming", "ns_per_window", secs * 1e9 / windows);
  }
  {
    PostmortemConfig cfg;  // bare-bones, as in Fig. 5
    cfg.mode = ParallelMode::kPagerank;
    cfg.kernel = KernelKind::kSpmv;
    cfg.partitioner = par::Partitioner::kStatic;
    cfg.num_multi_windows = 6;
    cfg.partial_init = true;
    // The postmortem case also exports histogram percentiles and counter
    // rates — the regression surface the observability layer adds. Each
    // extra takes its own element-wise best across the repeats (min for
    // latencies, max for throughput): one run's tail can be atypically
    // slow without the whole gate flapping.
    double secs = 0.0;
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
    double eps = 0.0;
    std::uint64_t iterations = 0;
    for (std::int64_t r = 0; r < args.repeats; ++r) {
      ChecksumSink sink(spec.count);
      const RunResult res = run_postmortem(events, spec, sink, cfg);
      const double run_secs = res.build_seconds + res.compute_seconds;
      const obs::PhaseHistogram& iter = res.histograms[obs::Phase::kIterate];
      if (r == 0 || run_secs < secs) secs = run_secs;
      const std::uint64_t run_p50 = iter.percentile_ns(0.50);
      const std::uint64_t run_p99 = iter.percentile_ns(0.99);
      if (r == 0 || run_p50 < p50) p50 = run_p50;
      if (r == 0 || run_p99 < p99) p99 = run_p99;
      eps = std::max(
          eps,
          static_cast<double>(res.counters[obs::Counter::kEdgesTraversed]) /
              std::max(run_secs, 1e-12));
      iterations = res.total_iterations;  // deterministic across repeats
    }
    emit("fig5.postmortem", "seconds", secs);
    emit("fig5.postmortem", "ns_per_window", secs * 1e9 / windows);
    emit("fig5.postmortem", "iterate_p50_ns", static_cast<double>(p50));
    emit("fig5.postmortem", "iterate_p99_ns", static_cast<double>(p99));
    emit("fig5.postmortem", "edges_per_second", eps);
    emit("fig5.postmortem", "total_iterations",
         static_cast<double>(iterations));
  }

  // --- fig6: partial-init ablation ------------------------------------
  for (const bool partial : {true, false}) {
    PostmortemConfig cfg;
    cfg.kernel = KernelKind::kSpmv;
    cfg.num_multi_windows = 6;
    cfg.partial_init = partial;
    const double secs = best_seconds(
        args.repeats, [&] { return time_postmortem(events, spec, cfg); });
    emit(partial ? "fig6.partial_on" : "fig6.partial_off", "seconds", secs);
  }

  // --- fig8: SpMM vector length on a prebuilt representation ----------
  {
    const MultiWindowSet set = MultiWindowSet::build(events, spec, 6);
    for (const std::size_t y : {std::size_t{2}, std::size_t{8}}) {
      PostmortemConfig cfg;
      cfg.kernel = KernelKind::kSpmm;
      cfg.vector_length = y;
      cfg.partial_init = true;
      const double secs = best_seconds(
          args.repeats, [&] { return time_postmortem_prebuilt(set, cfg); });
      emit(y == 2 ? "fig8.y2" : "fig8.y8", "compute_seconds", secs);
    }
  }

  // --- micro: one kernel traversal, ns/iteration ----------------------
  {
    const MultiWindowSet set =
        MultiWindowSet::build(events,
                              last_windows(events, 90 * kDay, 86'400,
                                           std::min<std::size_t>(
                                               64, spec.count)),
                              2);
    const MultiWindowGraph& part = set.part(0);
    const WindowSpec& mspec = set.spec();
    const std::size_t w = part.first_window;
    PagerankParams params;
    params.max_iters = 1;  // time exactly one traversal
    params.tol = 0.0;
    const int iters = static_cast<int>(micro_iters);
    const int warmup = std::max(1, iters / 10);
    const auto ns_per_iter = [&](auto&& fn) {
      const std::vector<double> times = time_repeats(fn, iters, warmup);
      return *std::min_element(times.begin(), times.end()) * 1e9;
    };

    {
      WindowState ws;
      oracle::compute_window_state(part, mspec.start(w), mspec.end(w), ws);
      std::vector<double> x(part.num_local());
      std::vector<double> scratch(part.num_local());
      full_init(ws.active, ws.num_active, x);
      emit("micro.spmv_ref", "ns_per_iteration", ns_per_iter([&] {
             oracle::pagerank_window_spmv(part, mspec.start(w), mspec.end(w),
                                          ws, x, scratch, params);
           }));
    }
    {
      WindowState ws;
      CompiledWindowCsr compiled;
      compile_window(part, mspec.start(w), mspec.end(w), ws, compiled);
      std::vector<double> x(part.num_local());
      std::vector<double> scratch(part.num_local());
      full_init(ws.active, ws.num_active, x);
      emit("micro.spmv_compiled", "ns_per_iteration", ns_per_iter([&] {
             pagerank_window_spmv(ws, compiled, x, scratch, params);
           }));
    }
    {
      const SpmmBatch batch = spmm16_batch(part);
      SpmmWindowState ws;
      CompiledBatchCsr compiled;
      compile_spmm_batch(part, mspec, batch, ws, compiled);
      const std::size_t n = part.num_local();
      std::vector<double> x(n * batch.lanes, 1.0 / static_cast<double>(n));
      std::vector<double> scratch(n * batch.lanes);
      emit("micro.spmm16_compiled", "ns_per_iteration", ns_per_iter([&] {
             pagerank_spmm(ws, compiled, x, scratch, params);
           }));
    }
  }

  // --- micro: full-word (64-lane) SpMM sweep, ns/lane ----------------
  {
    PagerankParams params;
    params.max_iters = 1;  // time exactly one traversal
    params.tol = 0.0;
    // A 64-lane traversal does ~4x the work of the 16-lane case; fewer
    // timed iterations keep the suite fast while the min stays stable.
    const int iters =
        static_cast<int>(std::max<std::int64_t>(10, micro_iters / 8));
    const int warmup = std::max(1, iters / 10);
    const std::size_t lanes = kMaxSpmmLanes;
    const WindowSpec wspec = wide_lane_spec(events, lanes);
    const MultiWindowSet wset = MultiWindowSet::build(events, wspec, 1);
    const MultiWindowGraph& part = wset.part(0);
    SpmmBatch batch;
    batch.lanes = lanes;
    batch.first_window = part.first_window;
    batch.window_stride = 1;
    SpmmWindowState ws;
    CompiledBatchCsr compiled;
    compile_spmm_batch(part, wspec, batch, ws, compiled);
    const std::size_t n = part.num_local();
    std::vector<double> x(n * lanes, 1.0 / static_cast<double>(n));
    std::vector<double> scratch(n * lanes);
    const std::vector<double> times = time_repeats(
        [&] { pagerank_spmm(ws, compiled, x, scratch, params); }, iters,
        warmup);
    const double ns = *std::min_element(times.begin(), times.end()) * 1e9;
    emit("micro.spmm64_compiled", "ns_per_iteration", ns);
    emit("micro.spmm64_compiled", "ns_per_lane",
         ns / static_cast<double>(lanes));
  }

  // --- io: chunked codec — compression ratio + decode throughput ------
  {
    const MultiWindowSet set = MultiWindowSet::build(events, spec, 6);
    std::vector<io::CompressedTemporalCsr> parts;
    std::size_t raw_bytes = 0;
    std::size_t packed_bytes = 0;
    std::size_t entries = 0;
    for (std::size_t p = 0; p < set.num_parts(); ++p) {
      io::CompressedTemporalCsr packed =
          compress_temporal_csr(set.part(p).in);
      raw_bytes += packed.raw_adjacency_bytes();
      packed_bytes += packed.memory_bytes();  // payload + chunk table
      entries += packed.num_entries();
      parts.push_back(std::move(packed));
    }
    emit("io.compress_ratio", "ratio",
         static_cast<double>(raw_bytes) / static_cast<double>(packed_bytes));
    emit("io.compress_ratio", "bits_per_entry",
         static_cast<double>(packed_bytes) * 8.0 /
             static_cast<double>(entries));

    // Full decode of every part — the varint/delta inner loop the
    // chunk-streaming compile passes run per batch.
    const int iters = static_cast<int>(std::max<std::int64_t>(
        10, micro_iters / 4));
    const int warmup = std::max(1, iters / 10);
    io::DecodeScratch scratch;
    const std::vector<double> times = time_repeats(
        [&] {
          for (const io::CompressedTemporalCsr& packed : parts) {
            packed.decode_all(scratch);
          }
        },
        iters, warmup);
    const double secs = *std::min_element(times.begin(), times.end());
    emit("micro.decode_varint", "ns_per_entry",
         secs * 1e9 / static_cast<double>(entries));
    emit("micro.decode_varint", "entries_per_second",
         static_cast<double>(entries) / secs);
  }

  // --- io: out-of-core paging — residency + read amplification --------
  {
    PostmortemConfig cfg;
    cfg.kernel = KernelKind::kSpmv;
    cfg.num_multi_windows = 6;
    cfg.partial_init = true;
    cfg.storage = StorageKind::kOutOfCore;
    cfg.memory_budget_bytes = 0;  // one part at a time — maximal paging
    double secs = 0.0;
    std::size_t peak = 0;
    double read_amp = 0.0;
    for (std::int64_t r = 0; r < args.repeats; ++r) {
      ChecksumSink sink(spec.count);
      const RunResult res = run_postmortem(events, spec, sink, cfg);
      const double run_secs = res.build_seconds + res.compute_seconds;
      if (r == 0 || run_secs < secs) secs = run_secs;
      // Both memory records are deterministic for a fixed surrogate and
      // config (charged residency and counter-derived amplification, not
      // wall-clock), so the last repeat's values stand.
      peak = res.oocore_resident_peak_bytes;
      read_amp = res.read_amplification;
    }
    emit("io.oocore_paging", "seconds", secs);
    emit("io.oocore_paging", "resident_peak_bytes",
         static_cast<double>(peak));
    emit("io.oocore_paging", "read_amplification", read_amp);
  }

  print(table, args);
  if (!args.json.empty() && !json.write(args.json)) {
    std::cerr << "failed to write " << args.json << "\n";
    return 1;
  }
  return 0;
}
