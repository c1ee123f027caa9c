#include "obs/counters.hpp"

#include "obs/thread_slots.hpp"

namespace pmpr::obs {

namespace {

constexpr std::array<std::string_view, kNumCounters> kCounterNames = {
    "tasks_spawned",     "tasks_executed",   "steals_attempted",
    "steals_succeeded",  "parks",            "unparks",
    "edges_traversed",   "dangling_scanned", "lanes_converged",
    "iterations",        "vertices_reused",  "vertices_reseeded",
    "windows_processed", "sampler_ticks",    "histogram_records",
    "simd_sweep_scalar", "simd_sweep_avx2",  "simd_sweep_avx512",
    "parts_evicted",     "part_refaults",    "chunks_decoded",
    "chunks_pruned",     "bytes_decoded",    "window_output_bytes",
};

/// One padded block per registered thread. kNumCounters * 8 bytes rounded
/// up to whole cache lines, so adjacent threads never false-share.
struct alignas(64) CounterBlock {
  std::array<std::atomic<std::uint64_t>, kNumCounters> v{};
};

ThreadSlots<CounterBlock, kOwnedThreadSlots> g_blocks;

}  // namespace

std::string_view to_string(Counter c) {
  return kCounterNames[static_cast<std::size_t>(c)];
}

namespace detail {

void counter_add(Counter c, std::uint64_t n) {
  // relaxed: counters are commutative monotonic tallies read by
  // counters_snapshot(), which is advisory by contract while writers are
  // live; no other data is published through them.
  g_blocks.mine().v[static_cast<std::size_t>(c)].fetch_add(
      n, std::memory_order_relaxed);
}

}  // namespace detail

bool set_counters_enabled(bool enabled) {
  // seq_cst exchange: cold toggle, strongest order keeps reasoning trivial.
  return detail::g_counters_enabled.exchange(enabled);
}

bool set_metrics_enabled(bool enabled) {
  // seq_cst exchange: cold toggle, as above.
  return detail::g_metrics_enabled.exchange(enabled);
}

CounterSnapshot counters_snapshot() {
  CounterSnapshot snap;
  g_blocks.for_each_claimed([&](std::size_t, const CounterBlock& block) {
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      // relaxed: see counter_add — totals are advisory while writers run.
      snap.values[i] += block.v[i].load(std::memory_order_relaxed);
    }
  });
  return snap;
}

void reset_counters() {
  g_blocks.for_each_claimed([](std::size_t, CounterBlock& block) {
    for (std::atomic<std::uint64_t>& v : block.v) {
      // relaxed: reset is documented as racy-by-contract against live
      // producers; snapshot totals remain advisory.
      v.store(0, std::memory_order_relaxed);
    }
  });
}

}  // namespace pmpr::obs
