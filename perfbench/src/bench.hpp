// The repository benchmark: workloads, passes, the correctness check, the
// span tracer and the machine fingerprint (see perfbench/README.md).
//
// A *pass* is one full run of a workload's execution model: events already
// in memory -> representation -> ranks of every window delivered to a sink.
// Everything a pass needs (events, window spec, runner configuration and
// the offline reference used by the check) is built once per setup.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "exec/config.hpp"
#include "exec/postmortem_runner.hpp"
#include "exec/results.hpp"
#include "exec/streaming_runner.hpp"
#include "graph/edge_list.hpp"
#include "graph/window.hpp"
#include "par/thread_pool.hpp"

namespace pmpr::perfbench {

// ---------------------------------------------------------------- tracing

/// In-memory span recorder. One span per call into a library function the
/// benchmark wants attributed; spans are kept until write_json(). Thread
/// safe: result sinks open spans from pool workers. A span opened on a
/// thread with no open span of its own is parented to the innermost open
/// span that the tracer's owning thread marked as `adopts_workers` (the
/// runner call that caused the worker's work).
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    std::int64_t parent = -1;  ///< Index into spans(), -1 for a root.
    int thread = 0;
  };

  /// RAII span. A null tracer makes it a no-op, so call sites need no
  /// branch of their own.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, bool adopts_workers = false);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int64_t id_ = -1;
    bool adopts_;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] std::vector<Span> spans() const;

  /// Closed spans named `name`: their durations in seconds, in order.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;
  /// Σ self time (duration minus the part of it covered by child spans) of
  /// the closed spans named `name` whose parent is span `parent`.
  [[nodiscard]] double self_seconds_under(std::string_view name,
                                          std::int64_t parent) const;
  /// Index of the most recently opened span named `name`, or -1.
  [[nodiscard]] std::int64_t last(std::string_view name) const;

  /// Writes every span as JSON ({"spans": [...]}) plus `meta` (a JSON
  /// object literal) under "machine". Returns false on IO failure.
  [[nodiscard]] bool write_json(const std::string& path,
                                const std::string& meta) const;

 private:
  std::int64_t open(const char* name, bool adopts_workers);
  void close(std::int64_t id, bool adopts_workers);

  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::atomic<std::int64_t> adopting_{-1};
  int owner_thread_ = 0;
};

// -------------------------------------------------------------- workloads

enum class Model {
  kPostmortem,  ///< run_postmortem, in-RAM storage, suggested config.
  kPaged,       ///< run_postmortem with StorageKind::kOutOfCore.
  kStreaming,   ///< run_streaming (insert/expire + incremental PageRank).
};

struct Workload {
  std::string name;
  std::string dataset;  ///< gen::dataset_by_name surrogate.
  double scale = 1.0;   ///< gen::scaled factor.
  Timestamp delta = 0;  ///< Window size.
  Timestamp sw = 1;     ///< Sliding offset.
  std::size_t max_windows = 0;  ///< 0 = every window covering the input.
  /// The first window starts this long after the dataset's first instant.
  Timestamp start_offset = 0;
  Model model = Model::kPostmortem;
  std::size_t paged_parts = 0;  ///< kPaged: multi-window part count.
  /// The check compares windows 0, k, 2k, ... against the offline model.
  std::size_t check_stride = 1;
};

/// Throws std::invalid_argument for an unknown name.
const Workload& workload_by_name(std::string_view name);

/// Offline-model checksums of windows 0, k, 2k, ... and the tolerances a
/// pass's checksums must meet. PageRank stops once an iteration's L1 change
/// drops below tol; the power iteration contracts by (1 - alpha) per step,
/// so a stopped vector is within tol * (1 - alpha) / alpha of the fixed
/// point in L1. Two independently stopped runs therefore differ by less
/// than 2 * tol / alpha in L1, which bounds the mass difference, and by
/// less than that times the largest vertex weight (num_vertices) in the
/// weighted checksum.
struct Reference {
  std::size_t stride = 1;
  std::vector<double> mass;
  std::vector<double> weighted;
  double mass_tol = 0.0;
  double weighted_tol = 0.0;
};

/// What a pass needs; built by make_input (the timed setup).
struct Input {
  TemporalEdgeList events;
  WindowSpec spec;
  /// Runner configuration for postmortem passes (for a streaming workload:
  /// the postmortem comparison pass on the same input).
  PostmortemConfig postmortem;
  StreamingOptions streaming;
  Reference reference;
};

/// Generates the surrogate from `seed`, picks the runner configuration and
/// computes the reference. `scale_factor` multiplies the workload's scale
/// (the self-test runs tiny inputs). Paged passes spill under `spill_dir`.
Input make_input(const Workload& w, double scale_factor, std::uint64_t seed,
                 par::ThreadPool& pool, const std::string& spill_dir,
                 Tracer* tracer);

/// Per-pass overrides used by the traced run's probes.
struct PassOptions {
  par::ThreadPool* pool = nullptr;  ///< null = the input's pool.
  /// Postmortem partial initialization / streaming warm start.
  bool warm_start = true;
  /// Run a streaming workload's input through the postmortem model.
  bool postmortem_instead = false;
  Tracer* tracer = nullptr;
};

/// Runs one pass. The runner call gets an "exec.run_*" span when traced.
RunResult run_pass(const Workload& w, const Input& in, ResultSink& sink,
                   const PassOptions& opts);

/// The sink every pass writes to: per-window checksums (ChecksumSink's
/// definition), an "analysis.consume" span per call when traced, and — for
/// the negative self-test only — a scaled copy of one window's ranks.
class CheckingSink final : public ResultSink {
 public:
  CheckingSink(std::size_t num_windows, Tracer* tracer,
               std::int64_t perturb_window)
      : inner_(num_windows), tracer_(tracer), perturb_(perturb_window) {}

  void consume_dense(std::size_t window, std::span<const double> pr) override;
  void consume_mapped(std::size_t window, std::span<const VertexId> ids,
                      std::span<const double> pr) override;

  [[nodiscard]] const ChecksumSink& checksums() const { return inner_; }

 private:
  ChecksumSink inner_;
  Tracer* tracer_;
  std::int64_t perturb_;
};

struct CheckCount {
  std::size_t checked = 0;
  std::size_t wrong = 0;
  /// Largest |difference| / tolerance seen, mass or weighted (< 1 = pass).
  double worst = 0.0;

  void add(const CheckCount& o) {
    checked += o.checked;
    wrong += o.wrong;
    worst = std::max(worst, o.worst);
  }
};

/// Compares the reference windows of `got` within the tolerances.
CheckCount check(const Reference& ref, const ChecksumSink& got);

// ---------------------------------------------------------------- machine

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Machine {
  std::size_t nproc = 0;
  std::size_t pool_threads = 0;
  std::size_t llc_bytes = 0;  ///< 0 when sysfs does not report it.
  std::string simd_isa;       ///< RunResult::simd_isa of a pass.
  /// Traced run only: STREAM triad over three arrays of this size each.
  double triad_gbs = 0.0;
  std::size_t triad_array_bytes = 0;
};

/// STREAM triad a[i] = b[i] + s * c[i] over three arrays of
/// `array_bytes` each; best of `reps` sweeps, in GB/s (1e9 bytes/s,
/// counting 3 arrays of traffic per sweep).
double measure_triad_gbs(std::size_t array_bytes, int reps);

std::size_t online_cpus();
/// Last-level cache size from sysfs, 0 if unknown.
std::size_t llc_bytes();
/// Resets the RSS high-water mark to the current RSS (Linux clear_refs).
/// Returns false when the kernel refuses.
bool reset_peak_rss();
/// VmHWM in MiB.
double peak_rss_mib();
/// User + system CPU seconds of the whole process.
double process_cpu_seconds();

std::string machine_json(const Machine& m);

// ------------------------------------------------------------ traced run

struct TracedOptions {
  const Workload* workload = nullptr;
  double scale_factor = 1.0;
  std::uint64_t seed = 0;
  par::ThreadPool* pool = nullptr;
  std::string spill_dir;
  std::string spans_path;  ///< Empty = do not write spans.
  std::int64_t perturb_window = -1;
};

struct TracedResult {
  std::vector<Metric> metrics;
  CheckCount check;
  std::size_t failed_passes = 0;
  Machine machine;
};

/// The per-layer run: one setup, traced and untraced passes, and one probe
/// per layer, each timed by spans around the library's public calls.
TracedResult run_traced(const TracedOptions& opts);

}  // namespace pmpr::perfbench
