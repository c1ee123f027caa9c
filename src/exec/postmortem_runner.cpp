#include "exec/postmortem_runner.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>
#include <vector>

#include "graph/memory_budget.hpp"
#include "obs/counters.hpp"
#include "obs/flightrec.hpp"
#include "obs/histogram.hpp"
#include "obs/memory.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "pagerank/partial_init.hpp"
#include "pagerank/spmm_temporal.hpp"
#include "pagerank/spmv_temporal.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace pmpr {

namespace {

/// Scratch and partial-init carry of one chain: the items of one part,
/// processed in order by one task, so item i > 0 warm-starts from item i-1
/// (§4.3.1) whichever thread runs the chain.
struct ChainState {
  WindowState ws;
  SpmmWindowState spmm_ws;
  CompiledWindowCsr compiled_win;
  CompiledBatchCsr compiled_batch;
  /// Chunk-decode buffers for compressed parts, reused across the serial
  /// compile passes (the parallel passes allocate per callback).
  io::DecodeScratch decode_scratch;
  std::vector<double> x;
  std::vector<double> scratch;
  std::vector<double> lane_buf;

  // Carry for partial initialization: result of the chain's previous item.
  std::vector<double> prev_x;
  std::vector<std::uint8_t> prev_active;      // SpMV
  std::vector<std::uint64_t> prev_mask;       // SpMM, one word per vertex
  std::size_t prev_lanes = 0;                 // SpMM
};

/// SpMM batch geometry for one part (§4.4): W windows are divided into
/// `lanes` regions of `region` consecutive windows; batch j takes the j-th
/// window of every region, so batch j+1 holds the successors of batch j.
struct PartBatching {
  std::size_t lanes_max = 0;
  std::size_t region = 0;
  std::size_t num_batches = 0;
};

PartBatching batching_for(std::size_t num_windows, std::size_t vector_length,
                          std::size_t max_lanes) {
  // Both widths clamp to the kernels' one-word ceiling, kMaxSpmmLanes.
  const std::size_t cap =
      std::min(std::max<std::size_t>(max_lanes, 1), kMaxSpmmLanes);
  PartBatching b;
  b.lanes_max = std::min(std::max<std::size_t>(vector_length, 1),
                         std::min<std::size_t>(num_windows, cap));
  b.region = (num_windows + b.lanes_max - 1) / b.lanes_max;
  b.num_batches = b.region;
  return b;
}

std::size_t lanes_of_batch(const PartBatching& b, std::size_t num_windows,
                           std::size_t j) {
  // Lane r exists iff r*region + j < num_windows.
  if (j >= num_windows) return 0;
  return (num_windows - j - 1) / b.region + 1;
}

/// Eq. 4 for lane k over lane-interleaved storage: lane k of the current
/// batch warm-starts from lane k of the previous one.
void spmm_partial_init_lane(std::span<const double> prev_x,
                            std::size_t prev_lanes,
                            std::span<const std::uint64_t> prev_mask,
                            std::span<double> cur_x, std::size_t cur_lanes,
                            std::span<const std::uint64_t> cur_mask,
                            std::size_t k, std::size_t cur_num_active) {
  const std::size_t n = cur_mask.size();
  const auto prev_has = [&](std::size_t v) {
    return mask_test(prev_mask[v], k);
  };
  const auto cur_has = [&](std::size_t v) { return mask_test(cur_mask[v], k); };
  if (cur_num_active == 0) {
    for (std::size_t v = 0; v < n; ++v) cur_x[v * cur_lanes + k] = 0.0;
    return;
  }
  std::size_t shared = 0;
  double mass = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    if (prev_has(v) && cur_has(v)) {
      ++shared;
      mass += prev_x[v * prev_lanes + k];
    }
  }
  const double uniform = 1.0 / static_cast<double>(cur_num_active);
  if (shared == 0 || mass <= 0.0) {
    for (std::size_t v = 0; v < n; ++v) {
      cur_x[v * cur_lanes + k] = cur_has(v) ? uniform : 0.0;
    }
    obs::count(obs::Counter::kVerticesReseeded, cur_num_active);
    return;
  }
  obs::count(obs::Counter::kVerticesReused, shared);
  obs::count(obs::Counter::kVerticesReseeded, cur_num_active - shared);
  const double scale =
      (static_cast<double>(shared) / static_cast<double>(cur_num_active)) /
      mass;
  for (std::size_t v = 0; v < n; ++v) {
    if (!cur_has(v)) {
      cur_x[v * cur_lanes + k] = 0.0;
    } else if (prev_has(v)) {
      cur_x[v * cur_lanes + k] = prev_x[v * prev_lanes + k] * scale;
    } else {
      cur_x[v * cur_lanes + k] = uniform;
    }
  }
}

class PostmortemDriver {
 public:
  /// Exactly one of `set` / `paged` is non-null. The paged form processes
  /// parts in order, holding a pin lease on one part at a time.
  PostmortemDriver(const MultiWindowSet* set, PagedMultiWindowSet* paged,
                   ResultSink& sink, const PostmortemConfig& cfg,
                   RunResult& result)
      : set_(set),
        paged_(paged),
        spec_(set != nullptr ? set->spec() : paged->spec()),
        sink_(sink),
        cfg_(cfg),
        result_(result) {
    kernel_opts_ = par::ForOptions{cfg.partitioner, cfg.grain, cfg.pool};
    kernel_par_ =
        cfg.mode == ParallelMode::kWindow ? nullptr : &kernel_opts_;
  }

  void run() {
    result_.num_windows = spec_.count;
    result_.iterations_per_window.assign(spec_.count, 0);
    result_.final_residuals.assign(spec_.count, 0.0);
    result_.residual_trajectories.assign(spec_.count, {});

    if (paged_ != nullptr) {
      // At most one part (plus LRU leftovers under the budget) resident.
      for (std::size_t p = 0; p < paged_->num_parts(); ++p) {
        const PagedMultiWindowSet::Lease lease = paged_->acquire(p);
        run_chain(lease.part());
      }
    } else if (cfg_.mode == ParallelMode::kPagerank) {
      // Windows strictly in order, parallelism inside the kernel only.
      for (std::size_t p = 0; p < set_->num_parts(); ++p) {
        run_chain(set_->part(p));
      }
    } else {
      // Window-level width: one task per part.
      const par::ForOptions per_part{par::Partitioner::kSimple, 1, cfg_.pool};
      par::parallel_for(0, set_->num_parts(), per_part,
                        [this](std::size_t p) { run_chain(set_->part(p)); });
    }

    for (const int iters : result_.iterations_per_window) {
      result_.total_iterations += static_cast<std::uint64_t>(iters);
    }
  }

 private:
  /// Processes one part's items (windows for SpMV, batches for SpMM) in
  /// order on one state. Parts are cold-start boundaries: their vertex
  /// numberings differ.
  void run_chain(const MultiWindowGraph& part) {
    ChainState st;
    if (cfg_.kernel == KernelKind::kSpmv) {
      for (std::size_t i = 0; i < part.num_windows; ++i) {
        process_spmv(st, part, i);
      }
    } else {
      const PartBatching geo =
          batching_for(part.num_windows, cfg_.vector_length, cfg_.max_lanes);
      for (std::size_t j = 0; j < geo.num_batches; ++j) {
        process_spmm(st, part, geo, j);
      }
    }
  }

  void process_spmv(ChainState& st, const MultiWindowGraph& part,
                    std::size_t i) {
    const std::size_t w = part.first_window + i;
    const Timestamp ts = spec_.start(w);
    const Timestamp te = spec_.end(w);
    const std::size_t n = part.num_local();

    st.x.resize(n);
    st.scratch.resize(n);
    {
      PMPR_PHASE("window.build", obs::Phase::kBuild, w);
      compile_window(part, ts, te, st.ws, st.compiled_win, kernel_par_,
                     &st.decode_scratch);
    }

    const bool partial =
        cfg_.partial_init && i > 0 && st.prev_x.size() == n;
    {
      PMPR_PHASE("window.init", obs::Phase::kInit, w);
      if (partial) {
        partial_init(st.prev_x, st.prev_active, st.ws.active, st.ws.num_active,
                     st.x);
      } else {
        full_init(st.ws.active, st.ws.num_active, st.x);
      }
    }

    PagerankStats stats;
    {
      PMPR_PHASE("window.iterate", obs::Phase::kIterate, w);
      stats = pagerank_window_spmv(st.ws, st.compiled_win, st.x, st.scratch,
                                   cfg_.pr, kernel_par_);
    }
    result_.iterations_per_window[w] = stats.iterations;
    result_.final_residuals[w] = stats.final_residual;
    result_.residual_trajectories[w] = std::move(stats.residuals);
    obs::count(obs::Counter::kWindowsProcessed);
    obs::fr_record(obs::FrEvent::kWindowDone, nullptr, w, stats.iterations);
    {
      PMPR_PHASE("window.sink", obs::Phase::kSink, w);
      sink_.consume_mapped(w, part.local_to_global, st.x);
      // Read-amplification denominator: rank bytes this window delivered.
      obs::count(obs::Counter::kWindowOutputBytes, n * sizeof(double));
    }

    st.prev_x.swap(st.x);
    st.prev_active.swap(st.ws.active);
  }

  void process_spmm(ChainState& st, const MultiWindowGraph& part,
                    const PartBatching& geo, std::size_t j) {
    const std::size_t lanes = lanes_of_batch(geo, part.num_windows, j);
    assert(lanes >= 1);
    const std::size_t n = part.num_local();

    SpmmBatch batch;
    batch.lanes = lanes;
    batch.first_window = part.first_window + j;
    batch.window_stride = geo.region;

    st.x.resize(n * lanes);
    st.scratch.resize(n * lanes);
    {
      PMPR_PHASE("batch.build", obs::Phase::kBuild, batch.first_window);
      compile_spmm_batch(part, spec_, batch, st.spmm_ws, st.compiled_batch,
                         kernel_par_, &st.decode_scratch);
    }

    const bool partial = cfg_.partial_init && j > 0 &&
                         st.prev_lanes >= lanes &&
                         st.prev_x.size() == n * st.prev_lanes;
    {
      PMPR_PHASE("batch.init", obs::Phase::kInit, batch.first_window);
      for (std::size_t k = 0; k < lanes; ++k) {
        if (partial) {
          // Lane k's window is the successor of the previous batch's lane k.
          spmm_partial_init_lane(st.prev_x, st.prev_lanes, st.prev_mask,
                                 st.x, lanes, st.spmm_ws.active_mask, k,
                                 st.spmm_ws.num_active[k]);
        } else {
          const double uniform =
              st.spmm_ws.num_active[k] > 0
                  ? 1.0 / static_cast<double>(st.spmm_ws.num_active[k])
                  : 0.0;
          for (std::size_t v = 0; v < n; ++v) {
            st.x[v * lanes + k] =
                mask_test(st.spmm_ws.active_mask[v], k) ? uniform : 0.0;
          }
          obs::count(obs::Counter::kVerticesReseeded,
                     st.spmm_ws.num_active[k]);
        }
      }
    }

    SpmmStats stats;
    {
      PMPR_PHASE("batch.iterate", obs::Phase::kIterate, batch.first_window);
      stats = pagerank_spmm(st.spmm_ws, st.compiled_batch, st.x, st.scratch,
                            cfg_.pr, kernel_par_, cfg_.simd);
    }
    obs::count(obs::Counter::kWindowsProcessed, lanes);
    obs::fr_record(obs::FrEvent::kWindowDone, nullptr, batch.first_window,
                   lanes);

    PMPR_PHASE("batch.sink", obs::Phase::kSink, batch.first_window);
    st.lane_buf.resize(n);
    for (std::size_t k = 0; k < lanes; ++k) {
      const std::size_t w = batch.window_of_lane(k);
      for (std::size_t v = 0; v < n; ++v) {
        st.lane_buf[v] = st.x[v * lanes + k];
      }
      result_.iterations_per_window[w] = stats.lane_stats[k].iterations;
      result_.final_residuals[w] = stats.lane_stats[k].final_residual;
      result_.residual_trajectories[w] = std::move(stats.lane_stats[k].residuals);
      sink_.consume_mapped(w, part.local_to_global, st.lane_buf);
    }
    // Read-amplification denominator: one rank vector per lane's window.
    obs::count(obs::Counter::kWindowOutputBytes, lanes * n * sizeof(double));

    st.prev_x.swap(st.x);
    st.prev_mask = st.spmm_ws.active_mask;  // copy; spmm_ws reused next item
    st.prev_lanes = lanes;
  }

  const MultiWindowSet* set_ = nullptr;
  PagedMultiWindowSet* paged_ = nullptr;
  const WindowSpec spec_;
  ResultSink& sink_;
  const PostmortemConfig& cfg_;
  RunResult& result_;
  /// In-kernel loops: the configured partitioner and grain.
  par::ForOptions kernel_opts_;
  const par::ForOptions* kernel_par_ = nullptr;
};

}  // namespace

namespace {

/// Folds the run's memory accounting into `result` (which must already
/// hold its counter delta). alloc/free tallies become run deltas against
/// `before`; live/peak stay the process watermarks at run end — watermarks
/// have no meaningful delta. peak_memory_bytes prefers the measured
/// tagged-charge watermark over the model estimate when accounting was on;
/// the estimate always survives in peak_memory_estimate_bytes so drift
/// between the two stays reportable.
void finish_memory_accounting(const obs::MemorySnapshot& before,
                              std::size_t estimate_bytes, RunResult& result) {
  obs::MemorySnapshot mem = obs::memory_snapshot();
  for (std::size_t i = 0; i < obs::kNumMemTags; ++i) {
    // Monotone tallies: never smaller than at run start unless a test
    // reset the registry mid-run, hence the clamp.
    mem.tags[i].alloc_bytes -=
        std::min(mem.tags[i].alloc_bytes, before.tags[i].alloc_bytes);
    mem.tags[i].free_bytes -=
        std::min(mem.tags[i].free_bytes, before.tags[i].free_bytes);
  }
  result.memory = mem;
  result.peak_memory_estimate_bytes = estimate_bytes;
  result.peak_memory_bytes =
      obs::memory_accounting_enabled() && mem.total_peak_bytes > 0
          ? static_cast<std::size_t>(mem.total_peak_bytes)
          : estimate_bytes;
  const std::uint64_t decoded = result.counters[obs::Counter::kBytesDecoded];
  const std::uint64_t delivered =
      result.counters[obs::Counter::kWindowOutputBytes];
  if (decoded > 0 && delivered > 0) {
    result.read_amplification =
        static_cast<double>(decoded) / static_cast<double>(delivered);
  }
}

}  // namespace

RunResult run_postmortem_prebuilt(const MultiWindowSet& set, ResultSink& sink,
                                  const PostmortemConfig& config) {
  PMPR_CHECK_MSG(config.storage != StorageKind::kOutOfCore,
                 "run_postmortem_prebuilt cannot page; use "
                 "run_postmortem_paged or run_postmortem with "
                 "StorageKind::kOutOfCore");
  if (config.validate) set.validate();
  RunResult result;
  // Resolve up front: a forced-but-unsupported simd mode fails the run
  // here, before any work, instead of deep inside the first batch.
  result.simd_isa = std::string(to_string(resolve_simd(config.simd)));
  const obs::CounterSnapshot before = obs::counters_snapshot();
  const obs::HistogramSnapshot hist_before = obs::histograms_snapshot();
  const obs::MemorySnapshot mem_before = obs::memory_snapshot();
  Timer timer;
  {
    PMPR_TRACE_SPAN("postmortem.run");
    PostmortemDriver driver(&set, nullptr, sink, config, result);
    driver.run();
  }
  result.compute_seconds = timer.seconds();
  result.counters = obs::counters_snapshot().delta_since(before);
  result.histograms = obs::histograms_snapshot().delta_since(hist_before);
  const std::size_t kernel_contexts =
      config.mode == ParallelMode::kPagerank
          ? 1
          : (config.pool != nullptr ? config.pool->num_threads()
                                    : par::ThreadPool::global().num_threads()) +
                1;
  const std::size_t vlen = config.kernel == KernelKind::kSpmm
                               ? std::min(config.vector_length, kMaxSpmmLanes)
                               : 1;
  const MemoryEstimate est = estimate_memory(set, vlen);
  result.representation_bytes = est.representation_bytes;
  finish_memory_accounting(mem_before, est.peak_bytes(kernel_contexts),
                           result);
  return result;
}

RunResult run_postmortem_paged(PagedMultiWindowSet& paged, ResultSink& sink,
                               const PostmortemConfig& config) {
  if (config.validate) {
    // Part at a time, bounded by the budget like any other access.
    for (std::size_t p = 0; p < paged.num_parts(); ++p) {
      paged.acquire(p).part().validate();
    }
  }
  RunResult result;
  result.simd_isa = std::string(to_string(resolve_simd(config.simd)));
  const obs::CounterSnapshot before = obs::counters_snapshot();
  const obs::HistogramSnapshot hist_before = obs::histograms_snapshot();
  const obs::MemorySnapshot mem_before = obs::memory_snapshot();
  Timer timer;
  {
    PMPR_TRACE_SPAN("postmortem.run_paged");
    PostmortemDriver driver(nullptr, &paged, sink, config, result);
    driver.run();
  }
  result.compute_seconds = timer.seconds();
  // Publish the store's paging activity as counters before snapshotting so
  // the run's delta includes them.
  const PagingStats ps = paged.stats();
  obs::count(obs::Counter::kPartsEvicted, ps.parts_evicted);
  obs::count(obs::Counter::kPartRefaults, ps.part_refaults);
  result.counters = obs::counters_snapshot().delta_since(before);
  result.histograms = obs::histograms_snapshot().delta_since(hist_before);
  result.representation_bytes = ps.store_bytes;
  result.oocore_resident_peak_bytes = ps.peak_resident_bytes;
  result.oocore_store_bytes = ps.store_bytes;
  result.oocore_raw_bytes = ps.raw_bytes;
  result.oocore_measured_resident_peak_bytes =
      ps.measured_resident_peak_bytes;
  // For paged runs the fallback "estimate" is itself a paging measurement:
  // charged payload peak plus the always-resident vertex maps. The tagged
  // watermark (when accounting is on) additionally sees compiled kernels
  // and decode scratch, so the two legitimately diverge.
  std::size_t meta_bytes = 0;
  for (std::size_t p = 0; p < paged.num_parts(); ++p) {
    meta_bytes +=
        paged.part_meta(p).local_to_global.size() * sizeof(VertexId);
  }
  finish_memory_accounting(mem_before, ps.peak_resident_bytes + meta_bytes,
                           result);
  return result;
}

RunResult run_postmortem(const TemporalEdgeList& events,
                         const WindowSpec& spec, ResultSink& sink,
                         const PostmortemConfig& config) {
  Timer build_timer;
  double build_seconds = 0.0;
  const obs::HistogramSnapshot hist_before = obs::histograms_snapshot();

  if (config.storage == StorageKind::kOutOfCore) {
    std::unique_ptr<PagedMultiWindowSet> paged;
    {
      PMPR_PHASE("postmortem.build_paged_store", obs::Phase::kBuild, 0);
      PagedMultiWindowSet::Options opts;
      opts.num_parts = config.num_multi_windows;
      opts.policy = config.partition_policy;
      opts.budget_bytes = config.memory_budget_bytes;
      opts.spill_path = config.spill_path;
      paged = PagedMultiWindowSet::build(events, spec, opts, config.pool);
      build_seconds = build_timer.seconds();
    }
    RunResult result = run_postmortem_paged(*paged, sink, config);
    result.build_seconds = build_seconds;
    result.histograms = obs::histograms_snapshot().delta_since(hist_before);
    return result;
  }

  MultiWindowSet set = [&] {
    PMPR_PHASE("postmortem.build_representation", obs::Phase::kBuild, 0);
    MultiWindowSet s =
        MultiWindowSet::build(events, spec, config.num_multi_windows,
                              config.partition_policy, config.pool);
    if (config.storage == StorageKind::kCompressed) {
      s.compress_in_place(io::kDefaultChunkEntries, config.pool);
    }
    build_seconds = build_timer.seconds();
    return s;
  }();

  RunResult result = run_postmortem_prebuilt(set, sink, config);
  result.build_seconds = build_seconds;
  // Re-delta from before the representation build so its kBuild recording
  // is attributed to this run too (prebuilt only saw its own interval).
  result.histograms = obs::histograms_snapshot().delta_since(hist_before);
  return result;
}

}  // namespace pmpr
