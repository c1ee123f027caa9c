#include "obs/sampler.hpp"

#include <algorithm>

#include "obs/counters.hpp"
#include "obs/memory.hpp"
#include "obs/trace.hpp"

namespace pmpr::obs {

Sampler::Sampler(SchedulerProbe& pool, SamplerOptions opts)
    : pool_(pool), opts_(opts) {}

void Sampler::start() {
  ticker_.start("obs.sampler", opts_.interval, [this] { sample_once(); });
}

void Sampler::stop() { ticker_.stop(); }

SamplerSample Sampler::sample_once() {
  SamplerSample s;
  s.t_ns = trace_now_ns();
  std::uint64_t total = 0;
  std::uint64_t deepest = 0;
  for (std::size_t i = 0; i < pool_.num_workers(); ++i) {
    const std::uint64_t d = pool_.approx_queued(i);
    total += d;
    deepest = std::max(deepest, d);
  }
  // approx_total_queued also counts the injection queue; per-deque sums
  // above only feed max_worker_depth.
  s.total_queued = pool_.approx_total_queued();
  s.max_worker_depth = deepest;
  s.parked_workers = pool_.parked_workers();

  const CounterSnapshot snap = counters_snapshot();
  const std::uint64_t attempted = snap[Counter::kStealsAttempted];
  const std::uint64_t succeeded = snap[Counter::kStealsSucceeded];
  if (have_last_counters_) {
    const std::uint64_t da =
        attempted >= last_steals_attempted_ ? attempted - last_steals_attempted_
                                            : 0;
    const std::uint64_t ds =
        succeeded >= last_steals_succeeded_ ? succeeded - last_steals_succeeded_
                                            : 0;
    s.steal_success_rate =
        da == 0 ? 0.0
                : static_cast<double>(std::min(ds, da)) /
                      static_cast<double>(da);
  }
  last_steals_attempted_ = attempted;
  last_steals_succeeded_ = succeeded;
  have_last_counters_ = true;
  s.lanes_converged = snap[Counter::kLanesConverged];
  s.windows_processed = snap[Counter::kWindowsProcessed];

  record(s);
  count(Counter::kSamplerTicks);
  if (opts_.emit_trace_counters && tracing_enabled()) {
    record_counter_sample("sched.total_queued", s.t_ns,
                          static_cast<double>(s.total_queued));
    record_counter_sample("sched.max_worker_depth", s.t_ns,
                          static_cast<double>(s.max_worker_depth));
    record_counter_sample("sched.parked_workers", s.t_ns,
                          static_cast<double>(s.parked_workers));
    record_counter_sample("sched.steal_success_rate", s.t_ns,
                          s.steal_success_rate);
    record_counter_sample("progress.windows_processed", s.t_ns,
                          static_cast<double>(s.windows_processed));
    // Memory pillar tracks: process RSS and the per-tag live charges on
    // every tick; the oocore residency/budget pair only while a paged
    // store's probe is registered, so Perfetto charts the paging policy
    // honoring the cap over time.
    record_counter_sample("mem.rss", s.t_ns,
                          static_cast<double>(current_rss_bytes()));
    const MemorySnapshot mem = memory_snapshot();
    for (std::size_t i = 0; i < kNumMemTags; ++i) {
      record_counter_sample(trace_track_name(static_cast<MemTag>(i)), s.t_ns,
                            static_cast<double>(mem.tags[i].live_bytes));
    }
    std::uint64_t oocore_resident = 0;
    std::uint64_t oocore_budget = 0;
    if (probed_residency(&oocore_resident, &oocore_budget)) {
      record_counter_sample("mem.oocore_resident", s.t_ns,
                            static_cast<double>(oocore_resident));
      record_counter_sample("mem.budget", s.t_ns,
                            static_cast<double>(oocore_budget));
    }
  }
  return s;
}

void Sampler::record(const SamplerSample& s) {
  LockGuard lock(mu_);
  if (opts_.ring_capacity > 0) {
    if (ring_.size() < opts_.ring_capacity) {
      ring_.push_back(s);
    } else {
      ring_[ring_next_] = s;
      ring_next_ = (ring_next_ + 1) % opts_.ring_capacity;
    }
  }
  ++num_samples_;
  sum_total_queued_ += static_cast<double>(s.total_queued);
  max_total_queued_ = std::max(max_total_queued_, s.total_queued);
  sum_parked_ += static_cast<double>(s.parked_workers);
  max_parked_ = std::max(max_parked_, s.parked_workers);
  if (s.steal_success_rate > 0.0) {
    sum_steal_rate_ += s.steal_success_rate;
    ++ticks_with_steals_;
  }
}

std::vector<SamplerSample> Sampler::samples() const {
  LockGuard lock(mu_);
  std::vector<SamplerSample> out;
  out.reserve(ring_.size());
  // Oldest-first: the ring wraps at ring_next_ once full.
  if (ring_.size() == opts_.ring_capacity && opts_.ring_capacity > 0) {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(ring_next_ + i) % ring_.size()]);
    }
  } else {
    out = ring_;
  }
  return out;
}

SamplerSummary Sampler::summary() const {
  LockGuard lock(mu_);
  SamplerSummary sum;
  sum.num_samples = num_samples_;
  sum.interval_ms = static_cast<std::uint64_t>(opts_.interval.count());
  if (num_samples_ > 0) {
    sum.mean_total_queued =
        sum_total_queued_ / static_cast<double>(num_samples_);
    sum.mean_parked_workers = sum_parked_ / static_cast<double>(num_samples_);
  }
  sum.max_total_queued = max_total_queued_;
  sum.max_parked_workers = max_parked_;
  if (ticks_with_steals_ > 0) {
    sum.mean_steal_success_rate =
        sum_steal_rate_ / static_cast<double>(ticks_with_steals_);
  }
  return sum;
}

}  // namespace pmpr::obs
