// Runtime telemetry: background scheduler sampling profiler (observability
// pillar 5 — *why* was a window slow, not just *that* it was).
//
// A Sampler owns one background thread that periodically snapshots the
// work-stealing scheduler: per-worker deque depths, parked-worker count,
// steal success rate (from counter deltas between ticks), and coarse
// progress gauges (lanes converged, windows processed). Samples land in a
// fixed-capacity ring buffer; running accumulators cover the whole run even
// after the ring wraps. When tracing is enabled, each tick also emits
// Chrome "ph":"C" counter events so Perfetto draws queue-depth/parked
// area charts under the span timeline.
//
// Cost discipline: one tick is O(num_workers) relaxed loads plus one
// counters_snapshot() — microseconds of work every `interval` (default
// 10 ms), well under 0.1% of one core. The sampled pool pays nothing
// beyond the advisory gauge reads (ThreadPool::approx_queued and friends).
//
// Lifetime: the Sampler must not outlive the pool it samples. The tick
// runs on an obs::Ticker thread; stop() (or the destructor) joins it
// promptly, since the ticker waits on an interruptible condvar.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/scheduler_probe.hpp"
#include "obs/ticker.hpp"
#include "util/thread_annotations.hpp"

namespace pmpr::obs {

struct SamplerOptions {
  /// Tick period. 10 ms resolves per-window scheduling behavior for the
  /// paper's workloads without measurable overhead.
  std::chrono::milliseconds interval{10};
  /// Ring capacity: the most recent samples kept for samples()/the trace.
  /// Older ticks still count toward summary() accumulators.
  std::size_t ring_capacity = 4096;
  /// Also emit "ph":"C" trace counter events per tick (only while
  /// obs::tracing_enabled()).
  bool emit_trace_counters = true;
};

/// One scheduler snapshot.
struct SamplerSample {
  std::int64_t t_ns = 0;               ///< trace_now_ns() at the tick.
  std::uint64_t total_queued = 0;      ///< Deques + injection queue.
  std::uint64_t max_worker_depth = 0;  ///< Deepest single worker deque.
  std::uint64_t parked_workers = 0;
  /// Steals succeeded / attempted since the previous tick; 0 when no
  /// attempts happened (or counters are disabled).
  double steal_success_rate = 0.0;
  std::uint64_t lanes_converged = 0;    ///< Cumulative counter value.
  std::uint64_t windows_processed = 0;  ///< Cumulative counter value.
};

/// Whole-run aggregate (exact even when the ring wrapped).
struct SamplerSummary {
  std::uint64_t num_samples = 0;
  std::uint64_t interval_ms = 0;
  double mean_total_queued = 0.0;
  std::uint64_t max_total_queued = 0;
  double mean_parked_workers = 0.0;
  std::uint64_t max_parked_workers = 0;
  /// Mean of per-tick rates over ticks that saw steal attempts.
  double mean_steal_success_rate = 0.0;
};

class Sampler {
 public:
  /// Does not start sampling; call start(). Destruction stops and joins.
  /// `pool` (any SchedulerProbe — in practice a par::ThreadPool) must
  /// outlive `*this`.
  explicit Sampler(SchedulerProbe& pool, SamplerOptions opts = {});

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Launches the background thread. No-op if already running.
  void start();

  /// Signals the thread and joins it. No-op if not running; prompt,
  /// idempotent and safe to race from several threads (see Ticker::stop —
  /// the trace-exporter shutdown path stops the sampler while
  /// write_metrics_json may be flushing concurrently).
  void stop();

  [[nodiscard]] bool running() const { return ticker_.running(); }

  /// Takes one snapshot synchronously on the calling thread (also what the
  /// background loop does per tick). Usable with the thread stopped — e.g.
  /// tests, or one final sample after a run drains.
  SamplerSample sample_once();

  /// Copies out the ring (oldest first). Safe while running.
  [[nodiscard]] std::vector<SamplerSample> samples() const;

  /// Whole-run aggregate. Safe while running.
  [[nodiscard]] SamplerSummary summary() const;

 private:
  void record(const SamplerSample& s);

  SchedulerProbe& pool_;
  const SamplerOptions opts_;

  mutable Mutex mu_;
  std::vector<SamplerSample> ring_ PMPR_GUARDED_BY(mu_);
  std::size_t ring_next_ PMPR_GUARDED_BY(mu_) = 0;  ///< Next overwrite slot.
  std::uint64_t num_samples_ PMPR_GUARDED_BY(mu_) = 0;
  double sum_total_queued_ PMPR_GUARDED_BY(mu_) = 0.0;
  std::uint64_t max_total_queued_ PMPR_GUARDED_BY(mu_) = 0;
  double sum_parked_ PMPR_GUARDED_BY(mu_) = 0.0;
  std::uint64_t max_parked_ PMPR_GUARDED_BY(mu_) = 0;
  double sum_steal_rate_ PMPR_GUARDED_BY(mu_) = 0.0;
  std::uint64_t ticks_with_steals_ PMPR_GUARDED_BY(mu_) = 0;

  /// Previous-tick counter values for steal-rate deltas. Only touched by
  /// whoever calls sample_once(), which is the loop thread while running
  /// (callers must not race sample_once with a live loop).
  std::uint64_t last_steals_attempted_ = 0;
  std::uint64_t last_steals_succeeded_ = 0;
  bool have_last_counters_ = false;

  /// Last member: destroyed (stopped and joined) before the state the
  /// tick reads.
  Ticker ticker_;
};

}  // namespace pmpr::obs
