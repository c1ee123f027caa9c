// The traced run: per-layer metrics from spans around the library's public
// calls. Nothing here reaches inside src/; every layer number comes from
// timing a public entry point or reading what it returns.
#include <algorithm>
#include <bit>
#include <exception>
#include <iostream>
#include <memory>

#include "bench.hpp"
#include "graph/multi_window.hpp"
#include "graph/paged_multi_window.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/memory.hpp"
#include "pagerank/batch_csr.hpp"
#include "pagerank/spmm_temporal.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace pmpr::perfbench {
namespace {

double median_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : median(v);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void set_gates(bool on) {
  obs::set_counters_enabled(on);
  obs::set_histograms_enabled(on);
  obs::set_memory_accounting_enabled(on);
}

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

/// Work counts of the pagerank probe over a workload's SpMM batches; the
/// times are the probe's spans.
struct KernelProbe {
  double entries_scanned = 0.0;  ///< Stored part entries per compile.
  double lane_edges = 0.0;       ///< Set lane bits over compiled entries.
  double bytes = 0.0;            ///< Computed bytes of one traversal.
};

/// Compiles every SpMM batch of `part` exactly as the postmortem runner
/// lays them out (§4.4: `lanes` regions of `region` consecutive windows,
/// batch j takes the j-th window of each region) and runs one traversal
/// (max_iters = 1) of the compiled kernel per batch. Serial, so the
/// per-edge costs carry no scheduling.
void probe_part(const MultiWindowGraph& part, const WindowSpec& spec,
                const PostmortemConfig& cfg, Tracer& tracer,
                KernelProbe& out) {
  const std::size_t windows = part.num_windows;
  const std::size_t cap =
      std::min(std::max<std::size_t>(cfg.max_lanes, 1), kMaxSpmmLanes);
  const std::size_t lanes_max =
      std::min(std::max<std::size_t>(cfg.vector_length, 1),
               std::min(windows, cap));
  const std::size_t region = (windows + lanes_max - 1) / lanes_max;
  const std::size_t n = part.num_local();

  SpmmWindowState state;
  CompiledBatchCsr compiled;
  io::DecodeScratch scratch;
  PagerankParams one = cfg.pr;
  one.max_iters = 1;
  std::vector<double> x;
  std::vector<double> y;
  for (std::size_t j = 0; j < region; ++j) {
    SpmmBatch batch;
    batch.lanes = (windows - j - 1) / region + 1;
    batch.first_window = part.first_window + j;
    batch.window_stride = region;
    {
      const Tracer::Scope span(&tracer, "pagerank.compile_spmm_batch");
      compile_spmm_batch(part, spec, batch, state, compiled, nullptr,
                         &scratch);
    }
    out.entries_scanned += static_cast<double>(part.num_events);

    const std::size_t lanes = batch.lanes;
    x.assign(n * lanes, 0.0);
    y.assign(n * lanes, 0.0);
    for (std::size_t v = 0; v < n; ++v) {
      const std::uint64_t* mask = state.mask_of(v);
      for (std::size_t k = 0; k < lanes; ++k) {
        if ((mask[k / 64] >> (k % 64)) & 1U) {
          x[v * lanes + k] = 1.0 / static_cast<double>(state.num_active[k]);
        }
      }
    }
    {
      const Tracer::Scope span(&tracer, "pagerank.pagerank_spmm");
      static_cast<void>(
          pagerank_spmm(state, compiled, x, y, one, nullptr, cfg.simd));
    }
    std::size_t bits = 0;
    for (const std::uint64_t word : compiled.mask) {
      bits += static_cast<std::size_t>(std::popcount(word));
    }
    out.lane_edges += static_cast<double>(bits);
    // Computed, not measured: one traversal streams nbr and mask, reads
    // row_ptr pairs and the active-row list, gathers one lane row of x per
    // entry and writes one lane row of y per active row.
    const double entries = static_cast<double>(compiled.nbr.size());
    const double rows = static_cast<double>(compiled.active_rows.size());
    const double lane_row = 8.0 * static_cast<double>(lanes);
    out.bytes += entries * (4.0 + 8.0 * static_cast<double>(
                                          compiled.mask_words)) +
                 rows * (16.0 + 4.0) + entries * lane_row + rows * lane_row;
  }
}

}  // namespace

TracedResult run_traced(const TracedOptions& o) {
  const Workload& w = *o.workload;
  par::ThreadPool& pool = *o.pool;
  Tracer tracer;
  TracedResult out;
  out.machine.nproc = online_cpus();
  out.machine.pool_threads = pool.num_threads();
  out.machine.llc_bytes = llc_bytes();

  const Input in =
      make_input(w, o.scale_factor, o.seed, pool, o.spill_dir, &tracer);
  const bool streaming = w.model == Model::kStreaming;

  struct Pass {
    double wall = 0.0;
    RunResult res;
    std::int64_t exec_span = -1;
  };
  const auto pass = [&](PassOptions po) {
    CheckingSink sink(in.spec.count, po.tracer, o.perturb_window);
    Pass p;
    Timer t;
    try {
      p.res = run_pass(w, in, sink, po);
    } catch (const std::exception& e) {
      std::cerr << "pass failed: " << e.what() << "\n";
      ++out.failed_passes;
      out.check.checked += in.reference.mass.size();
      out.check.wrong += in.reference.mass.size();
      p.wall = t.seconds();
      return p;
    }
    p.wall = t.seconds();
    out.check.add(check(in.reference, sink.checksums()));
    if (po.tracer != nullptr) {
      p.exec_span = tracer.last(streaming && !po.postmortem_instead
                                    ? "exec.run_streaming"
                                    : "exec.run_postmortem");
    }
    if (out.machine.simd_isa.empty()) out.machine.simd_isa = p.res.simd_isa;
    return p;
  };

  // Untraced and traced passes alternate after one warm-up, so the two
  // medians see the same machine state.
  static_cast<void>(pass({}));
  std::vector<Pass> plain;
  std::vector<Pass> traced;
  for (int r = 0; r < 3; ++r) {
    plain.push_back(pass({}));
    traced.push_back(pass({.tracer = &tracer}));
  }
  std::vector<double> plain_wall;
  std::vector<double> traced_wall;
  std::vector<double> iterations;
  std::vector<double> build_s;
  std::vector<double> compute_s;
  std::vector<double> unattributed_s;
  std::vector<double> sink_s;
  for (const Pass& p : plain) {
    plain_wall.push_back(p.wall);
    iterations.push_back(static_cast<double>(p.res.total_iterations));
  }
  for (const Pass& p : traced) {
    traced_wall.push_back(p.wall);
    iterations.push_back(static_cast<double>(p.res.total_iterations));
    build_s.push_back(p.res.build_seconds);
    compute_s.push_back(p.res.compute_seconds);
    unattributed_s.push_back(p.wall - p.res.build_seconds -
                             p.res.compute_seconds);
    sink_s.push_back(tracer.self_seconds_under("analysis.consume",
                                               p.exec_span));
  }
  const double base_wall = median_of(plain_wall);
  const double base_iters = median_of(iterations);

  // Telemetry gates on: the overhead ratio, plus the counters the par and
  // io rows read.
  set_gates(true);
  const Pass gated = pass({});
  set_gates(false);
  const obs::CounterSnapshot& ctr = gated.res.counters;

  const Pass cold = pass({.warm_start = false});
  double serial_wall = 0.0;
  {
    par::ThreadPool one(1);
    serial_wall = pass({.pool = &one}).wall;
  }

  std::vector<Metric>& m = out.metrics;
  const auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };

  add("gen.generate_s", median_of(tracer.durations("gen.generate")), "s");

  // graph / io / pagerank probes run on the workload's own representation
  // path; a streaming pass has none of them.
  double build_wall = 0.0;
  double stored_events = 0.0;
  double representation_bytes = 0.0;
  double store_build_s = 0.0;
  double decode_ns_per_entry = 0.0;
  KernelProbe kp;
  const PostmortemConfig& cfg = in.postmortem;
  if (w.model == Model::kPostmortem) {
    MultiWindowSet set;
    for (int r = 0; r < 3; ++r) {
      set = MultiWindowSet{};  // free the previous build outside the span
      const Tracer::Scope span(&tracer, "graph.build");
      set = MultiWindowSet::build(in.events, in.spec, cfg.num_multi_windows,
                                  cfg.partition_policy);
    }
    build_wall = median_of(tracer.durations("graph.build"));
    for (std::size_t p = 0; p < set.num_parts(); ++p) {
      stored_events += static_cast<double>(set.part(p).num_events);
      representation_bytes += static_cast<double>(set.part(p).memory_bytes());
      if (cfg.kernel == KernelKind::kSpmm) {
        probe_part(set.part(p), in.spec, cfg, tracer, kp);
      }
    }
  } else if (w.model == Model::kPaged) {
    PagedMultiWindowSet::Options po;
    po.num_parts = cfg.num_multi_windows;
    po.policy = cfg.partition_policy;
    po.budget_bytes = cfg.memory_budget_bytes;
    po.spill_path = cfg.spill_path + ".probe";
    std::unique_ptr<PagedMultiWindowSet> paged;
    for (int r = 0; r < 2; ++r) {
      paged.reset();
      const Tracer::Scope span(&tracer, "io.paged_store_build");
      paged = PagedMultiWindowSet::build(in.events, in.spec, po);
    }
    store_build_s = median_of(tracer.durations("io.paged_store_build"));
    representation_bytes = static_cast<double>(gated.res.representation_bytes);
    io::DecodeScratch scratch;
    double decoded = 0.0;
    for (std::size_t p = 0; p < paged->num_parts(); ++p) {
      const PagedMultiWindowSet::Lease lease = paged->acquire(p);
      const MultiWindowGraph& part = lease.part();
      stored_events += static_cast<double>(part.num_events);
      {
        const Tracer::Scope span(&tracer, "io.decode_all");
        part.in_compressed->decode_all(scratch);
      }
      decoded += static_cast<double>(part.in_compressed->num_entries());
      if (cfg.kernel == KernelKind::kSpmm) {
        probe_part(part, in.spec, cfg, tracer, kp);
      }
    }
    decode_ns_per_entry =
        ratio(sum(tracer.durations("io.decode_all")) * 1e9, decoded);
  }
  double events_in_span = 0.0;
  if (!streaming) {
    events_in_span = static_cast<double>(
        in.events.slice(in.spec.start(0), in.spec.end(in.spec.count - 1))
            .size());
  }

  add("graph.build_s", build_wall, "s");
  add("graph.build_ns_per_event", ratio(build_wall * 1e9, stored_events),
      "ns");
  add("graph.dup_factor", ratio(stored_events, events_in_span), "x");
  add("graph.representation_bytes", representation_bytes, "B");

  add("io.store_build_s", store_build_s, "s");
  add("io.decode_ns_per_entry", decode_ns_per_entry, "ns");
  add("io.compress_ratio",
      ratio(static_cast<double>(gated.res.oocore_raw_bytes),
            static_cast<double>(gated.res.oocore_store_bytes)),
      "x");
  add("io.read_amp", gated.res.read_amplification, "x");
  add("io.evictions", static_cast<double>(ctr[obs::Counter::kPartsEvicted]),
      "count");
  add("io.refaults", static_cast<double>(ctr[obs::Counter::kPartRefaults]),
      "count");
  add("io.resident_peak_bytes",
      static_cast<double>(gated.res.oocore_resident_peak_bytes), "B");

  add("pagerank.compile_ns_per_edge",
      ratio(sum(tracer.durations("pagerank.compile_spmm_batch")) * 1e9,
            kp.entries_scanned),
      "ns");
  add("pagerank.iter_ns_per_lane_edge",
      ratio(sum(tracer.durations("pagerank.pagerank_spmm")) * 1e9,
            kp.lane_edges),
      "ns");
  add("pagerank.bytes_per_edge", ratio(kp.bytes, kp.lane_edges), "B");
  add("pagerank.iterations", base_iters, "count");
  const auto [fewest, most] =
      std::minmax_element(iterations.begin(), iterations.end());
  add("pagerank.iterations_spread", *most - *fewest, "count");
  add("pagerank.partial_init_gain",
      ratio(static_cast<double>(cold.res.total_iterations), base_iters), "x");

  add("par.speedup", ratio(serial_wall, base_wall), "x");
  add("par.steal_success",
      ratio(static_cast<double>(ctr[obs::Counter::kStealsSucceeded]),
            static_cast<double>(ctr[obs::Counter::kStealsAttempted])),
      "frac");
  add("par.tasks_per_window",
      ratio(static_cast<double>(ctr[obs::Counter::kTasksExecuted]),
            static_cast<double>(in.spec.count)),
      "count");

  add("exec.build_s", median_of(build_s), "s");
  add("exec.compute_s", median_of(compute_s), "s");
  add("exec.unattributed_s", median_of(unattributed_s), "s");
  add("analysis.sink_s", median_of(sink_s), "s");

  double stream_build = 0.0;
  double stream_compute = 0.0;
  double stream_speedup = 0.0;
  if (streaming) {
    stream_build = median_of(build_s);
    stream_compute = median_of(compute_s);
    stream_speedup = ratio(base_wall, pass({.postmortem_instead = true}).wall);
  }
  add("streaming.build_s", stream_build, "s");
  add("streaming.compute_s", stream_compute, "s");
  add("streaming.speedup_vs_postmortem", stream_speedup, "x");

  add("obs.gate_overhead", ratio(gated.wall, base_wall), "x");
  add("obs.trace_overhead", ratio(median_of(traced_wall), base_wall), "x");

  // Fingerprint: a STREAM triad whose arrays should be >= 4x the LLC to
  // measure DRAM. The arrays are capped at 128 MiB each so the benchmark
  // stays small on a shared host; README.md states what that implies.
  out.machine.triad_array_bytes = std::size_t{128} << 20;
  out.machine.triad_gbs =
      measure_triad_gbs(out.machine.triad_array_bytes, 5);

  if (!o.spans_path.empty() &&
      !tracer.write_json(o.spans_path, machine_json(out.machine))) {
    std::cerr << "cannot write spans to " << o.spans_path << "\n";
  }
  return out;
}

}  // namespace pmpr::perfbench
