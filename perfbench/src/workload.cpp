// Workload table, setup (surrogate + runner config + offline reference),
// one pass of a workload, and the correctness check.
#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unistd.h>

#include "bench.hpp"
#include "exec/offline_runner.hpp"
#include "gen/surrogates.hpp"

namespace pmpr::perfbench {
namespace {

using duration::kDay;
using duration::kHour;

const std::vector<Workload>& catalog() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> w;
    // Consecutive windows share ~99.7% of their span: kernel, partial-init
    // and scheduler work; the representation build is a few % of a pass.
    // The windows start 1500 d in, where the growth profile is dense: the
    // small graphs of the first years converge in a seed-dependent number
    // of iterations (20k-26k per 1024-window pass), the larger ones here
    // mostly do not. 512 windows keep a pass near 2 s, so a run takes
    // enough samples to ride out host noise.
    w.push_back({.name = "overlap",
                 .dataset = "wiki-talk",
                 .scale = 3.0,
                 .delta = 90 * kDay,
                 .sw = 6 * kHour,
                 .max_windows = 512,
                 .start_offset = 1500 * kDay,
                 .model = Model::kPostmortem,
                 .check_stride = 32});
    // Back-to-back windows share nothing: the build is a large share of a
    // pass and partial initialization has nothing to reuse.
    w.push_back({.name = "disjoint",
                 .dataset = "stackoverflow",
                 .scale = 4.0,
                 .delta = 30 * kDay,
                 .sw = 30 * kDay,
                 .max_windows = 0,
                 .model = Model::kPostmortem,
                 .check_stride = 4});
    // overlap's input and windows through the out-of-core store: encode,
    // spill, map and decode sit on the critical path. 16 windows per part,
    // one SpMM batch each.
    w.push_back({.name = "paged",
                 .dataset = "wiki-talk",
                 .scale = 3.0,
                 .delta = 90 * kDay,
                 .sw = 6 * kHour,
                 .max_windows = 512,
                 .start_offset = 1500 * kDay,
                 .model = Model::kPaged,
                 .paged_parts = 32,
                 .check_stride = 32});
    // The paper's Fig. 5 window and slide on the streaming model: one
    // mutable graph, edge-block insert/expire and incremental PageRank per
    // window. 64 windows rather than 256 keep a pass near 2 s, so a run
    // takes enough samples of a model whose per-iteration fork-joins make
    // it sensitive to host scheduling noise.
    w.push_back({.name = "streaming",
                 .dataset = "wiki-talk",
                 .scale = 5.0,
                 .delta = 90 * kDay,
                 .sw = kDay,
                 .max_windows = 64,
                 .start_offset = 1500 * kDay,
                 .model = Model::kStreaming,
                 .check_stride = 8});
    return w;
  }();
  return all;
}

Reference offline_reference(const TemporalEdgeList& events,
                            const WindowSpec& spec, std::size_t stride,
                            const PagerankParams& pr, par::ThreadPool& pool) {
  // Same t0 and delta, slide sw * k, ceil(count / k) windows: exactly the
  // pass's windows 0, k, 2k, ...
  WindowSpec sampled = spec;
  sampled.sw = spec.sw * static_cast<Timestamp>(stride);
  sampled.count = (spec.count + stride - 1) / stride;
  ChecksumSink sink(sampled.count);
  OfflineOptions opts;
  opts.pr = pr;
  opts.pool = &pool;
  static_cast<void>(run_offline(events, sampled, sink, opts));

  Reference ref;
  ref.stride = stride;
  ref.mass = sink.mass();
  ref.weighted = sink.weighted();
  ref.mass_tol = 2.0 * pr.tol / pr.alpha;
  ref.weighted_tol =
      ref.mass_tol * static_cast<double>(events.num_vertices());
  return ref;
}

}  // namespace

const Workload& workload_by_name(std::string_view name) {
  for (const Workload& w : catalog()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

Input make_input(const Workload& w, double scale_factor, std::uint64_t seed,
                 par::ThreadPool& pool, const std::string& spill_dir,
                 Tracer* tracer) {
  const gen::DatasetSpec data =
      gen::scaled(gen::dataset_by_name(w.dataset), w.scale * scale_factor);
  Input in;
  {
    const Tracer::Scope span(tracer, "gen.generate");
    in.events = gen::generate(data, seed);
  }
  // Windows are laid over the dataset's time range, not over the first and
  // last generated event: those move with the seed, and under a growth
  // profile a shifted start changes every window's event count.
  const Timestamp t0 = data.t_begin + w.start_offset;
  in.spec = w.max_windows == 0
                ? WindowSpec::cover(t0, data.t_end, w.delta, w.sw)
                : WindowSpec::cover_capped(t0, data.t_end, w.delta, w.sw,
                                           w.max_windows);

  in.postmortem = suggest_config_for(in.events, in.spec, pool.num_threads());
  in.postmortem.pool = &pool;
  if (w.model == Model::kPaged) {
    in.postmortem.storage = StorageKind::kOutOfCore;
    in.postmortem.memory_budget_bytes = 0;
    in.postmortem.num_multi_windows = w.paged_parts;
    in.postmortem.spill_path = spill_dir + "/paged-" +
                               std::to_string(::getpid()) + ".store";
  }
  in.streaming.pool = &pool;

  const Tracer::Scope span(tracer, "check.reference");
  in.reference = offline_reference(in.events, in.spec, w.check_stride,
                                   in.postmortem.pr, pool);
  return in;
}

RunResult run_pass(const Workload& w, const Input& in, ResultSink& sink,
                   const PassOptions& opts) {
  if (w.model == Model::kStreaming && !opts.postmortem_instead) {
    StreamingOptions so = in.streaming;
    if (opts.pool != nullptr) so.pool = opts.pool;
    so.incremental = opts.warm_start;
    const Tracer::Scope span(opts.tracer, "exec.run_streaming", true);
    return run_streaming(in.events, in.spec, sink, so);
  }
  PostmortemConfig cfg = in.postmortem;
  if (opts.pool != nullptr) cfg.pool = opts.pool;
  cfg.partial_init = opts.warm_start;
  const Tracer::Scope span(opts.tracer, "exec.run_postmortem", true);
  return run_postmortem(in.events, in.spec, sink, cfg);
}

void CheckingSink::consume_dense(std::size_t window,
                                 std::span<const double> pr) {
  const Tracer::Scope span(tracer_, "analysis.consume");
  if (static_cast<std::int64_t>(window) != perturb_) {
    inner_.consume_dense(window, pr);
    return;
  }
  std::vector<double> scaled(pr.begin(), pr.end());
  for (double& v : scaled) v *= 1.001;
  inner_.consume_dense(window, scaled);
}

void CheckingSink::consume_mapped(std::size_t window,
                                  std::span<const VertexId> ids,
                                  std::span<const double> pr) {
  const Tracer::Scope span(tracer_, "analysis.consume");
  if (static_cast<std::int64_t>(window) != perturb_) {
    inner_.consume_mapped(window, ids, pr);
    return;
  }
  std::vector<double> scaled(pr.begin(), pr.end());
  for (double& v : scaled) v *= 1.001;
  inner_.consume_mapped(window, ids, scaled);
}

CheckCount check(const Reference& ref, const ChecksumSink& got) {
  CheckCount c;
  for (std::size_t i = 0; i < ref.mass.size(); ++i) {
    const std::size_t w = i * ref.stride;
    ++c.checked;
    if (w >= got.mass().size()) {
      ++c.wrong;
      continue;
    }
    const double dm = std::abs(got.mass()[w] - ref.mass[i]);
    const double dw = std::abs(got.weighted()[w] - ref.weighted[i]);
    // Written so that a NaN checksum fails.
    if (!(dm <= ref.mass_tol && dw <= ref.weighted_tol)) ++c.wrong;
    c.worst = std::max({c.worst, dm / ref.mass_tol, dw / ref.weighted_tol});
  }
  return c;
}

}  // namespace pmpr::perfbench
