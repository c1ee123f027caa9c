// Runtime telemetry: fixed-footprint latency histograms (observability
// pillar 4 — distributions, not just means).
//
// The runners' per-window phase durations (build / init / iterate / sink)
// are log-bucketed HDR-style: 8 sub-buckets per power-of-two octave give a
// worst-case relative quantization error of 12.5% across a 1 ns .. ~68 s
// range in 280 fixed buckets per phase. That is what turns "mean window
// time" into the p50/p90/p99/max a regression gate can act on (a scheduler
// stall shows up in p99 long before it moves the mean).
//
// Design: each recording thread owns a cache-line-aligned block of
// relaxed-atomic bucket counters in an obs::ThreadSlots registry
// (obs/thread_slots.hpp). Aggregation sums every block; totals are
// advisory while writers are live, exact once they quiesce. Runner phases
// feed it through PMPR_PHASE (obs/phase.hpp).
//
// Cost discipline: `record_duration()` is one relaxed load + branch when
// histograms are disabled. Recording happens once per runner *phase* per
// window — never inside kernel loops — so even the enabled path (a couple
// of relaxed adds + a CAS-max) is noise at window granularity.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace pmpr::obs {

/// Runner phases whose per-window durations are recorded. Keep
/// kPhaseNames in histogram.cpp in sync.
enum class Phase : std::size_t {
  kBuild = 0,  ///< Window/batch graph-state construction (streaming: mutate).
  kInit,       ///< PageRank vector initialization (full or partial).
  kIterate,    ///< Power iterations to convergence.
  kSink,       ///< Handing the converged vector(s) to the ResultSink.
  kPage,       ///< Out-of-core part map/decode faults (io.page latency).
};
inline constexpr std::size_t kNumPhases = 5;

/// Human-readable snake_case name (stable; used as JSON keys).
[[nodiscard]] std::string_view to_string(Phase p);

/// Bucketing scheme: values 0..7 get exact buckets; beyond that each
/// power-of-two octave splits into 8 sub-buckets. Octaves up to 2^36 ns
/// (~68.7 s) are distinct; larger values clamp into the last bucket.
inline constexpr std::size_t kHistSubBits = 3;
inline constexpr std::size_t kHistMaxExp = 36;
inline constexpr std::size_t kHistNumBuckets =
    (1u << kHistSubBits) +
    (kHistMaxExp - kHistSubBits + 1) * (1u << kHistSubBits);

/// Bucket index for a duration of `ns` nanoseconds. Monotone in `ns`.
[[nodiscard]] std::size_t bucket_index(std::uint64_t ns);

/// Inclusive upper bound of bucket `i` in nanoseconds — the value reported
/// for a percentile that lands in the bucket (so reported percentiles are
/// conservative: never below the true quantile by more than one bucket).
[[nodiscard]] std::uint64_t bucket_upper_ns(std::size_t i);

/// Aggregated distribution of one phase. Plain values — subtract two
/// snapshots (delta_since) to attribute recordings to one run.
struct PhaseHistogram {
  std::array<std::uint64_t, kHistNumBuckets> counts{};
  std::uint64_t sum_ns = 0;
  /// Largest single recording since the last reset_histograms(). NOT
  /// delta-able: delta_since keeps the later snapshot's max (an interval
  /// max cannot be reconstructed from two cumulative maxima).
  std::uint64_t max_ns = 0;

  [[nodiscard]] std::uint64_t total_count() const;
  [[nodiscard]] double mean_ns() const;
  /// Quantile q in [0, 1] (clamped), resolved via
  /// pmpr::percentile_bucket — the tree's one bucket-percentile
  /// implementation — and mapped to the bucket's upper bound. 0 when empty.
  [[nodiscard]] std::uint64_t percentile_ns(double q) const;

  /// Element-wise count/sum difference clamped at zero (concurrent reset
  /// safety, same contract as CounterSnapshot); max_ns from `this`.
  [[nodiscard]] PhaseHistogram delta_since(const PhaseHistogram& base) const;
};

/// Point-in-time aggregate of every phase histogram.
struct HistogramSnapshot {
  std::array<PhaseHistogram, kNumPhases> phases{};

  [[nodiscard]] const PhaseHistogram& operator[](Phase p) const {
    return phases[static_cast<std::size_t>(p)];
  }

  [[nodiscard]] HistogramSnapshot delta_since(
      const HistogramSnapshot& base) const {
    HistogramSnapshot d;
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      d.phases[i] = phases[i].delta_since(base.phases[i]);
    }
    return d;
  }
};

namespace detail {
/// Inline so histograms_enabled() compiles to one load at every call site.
inline std::atomic<bool> g_histograms_enabled{false};
/// Out-of-line slow path: claims this thread's block on first use and adds.
void histogram_record(Phase p, std::uint64_t ns);
}  // namespace detail

/// Whether record_duration() records anything. The single check on the
/// disabled hot path.
[[nodiscard]] inline bool histograms_enabled() {
  // relaxed: an advisory on/off gate — a stale read only delays when
  // recording starts/stops by a few phases; no data is published through
  // this flag.
  return detail::g_histograms_enabled.load(std::memory_order_relaxed);
}

/// Enables/disables histogram recording. Returns the previous setting.
bool set_histograms_enabled(bool enabled);

/// Records one phase duration. Near-zero cost when disabled (one relaxed
/// load). Safe from any thread, including pool workers mid-steal.
inline void record_duration(Phase p, std::uint64_t ns) {
  if (!histograms_enabled()) return;
  detail::histogram_record(p, ns);
}

/// Sums every thread block. Advisory while producers run; exact after they
/// quiesce (e.g. once a runner has returned).
[[nodiscard]] HistogramSnapshot histograms_snapshot();

/// Zeroes every block (counts, sums, maxima). Only meaningful while no
/// producer is mid-flight; concurrent recordings may survive the reset.
void reset_histograms();

}  // namespace pmpr::obs
