#include "obs/histogram.hpp"

#include <algorithm>
#include <bit>

#include "obs/counters.hpp"
#include "obs/thread_slots.hpp"
#include "util/stats.hpp"

namespace pmpr::obs {

namespace {

constexpr std::array<std::string_view, kNumPhases> kPhaseNames = {
    "build",
    "init",
    "iterate",
    "sink",
    "io.page",
};

constexpr std::uint64_t kSub = 1u << kHistSubBits;

/// One aligned block per registered thread: per-phase bucket counts plus
/// the sum/max needed for mean and exact-max export. ~11 KiB per block —
/// the pool owns 64 blocks, not the counters' 256, because blocks are two
/// orders of magnitude bigger and only phase-recording threads (pool
/// workers + the main thread) ever write one.
struct alignas(64) HistBlock {
  std::array<std::array<std::atomic<std::uint64_t>, kHistNumBuckets>,
             kNumPhases>
      counts{};
  std::array<std::atomic<std::uint64_t>, kNumPhases> sum_ns{};
  std::array<std::atomic<std::uint64_t>, kNumPhases> max_ns{};
};

ThreadSlots<HistBlock, 64> g_blocks;

}  // namespace

std::string_view to_string(Phase p) {
  return kPhaseNames[static_cast<std::size_t>(p)];
}

std::size_t bucket_index(std::uint64_t ns) {
  if (ns < kSub) return static_cast<std::size_t>(ns);
  const auto top = static_cast<std::size_t>(std::bit_width(ns)) - 1;
  if (top > kHistMaxExp) return kHistNumBuckets - 1;
  const std::size_t octave = top - kHistSubBits;
  const auto sub =
      static_cast<std::size_t>((ns >> (top - kHistSubBits)) & (kSub - 1));
  return kSub + octave * kSub + sub;
}

std::uint64_t bucket_upper_ns(std::size_t i) {
  if (i >= kHistNumBuckets) i = kHistNumBuckets - 1;
  if (i < kSub) return i;
  const std::size_t octave = (i - kSub) / kSub;
  const std::size_t sub = (i - kSub) % kSub;
  const std::size_t top = octave + kHistSubBits;
  const std::uint64_t step = 1ULL << (top - kHistSubBits);
  return (1ULL << top) + static_cast<std::uint64_t>(sub + 1) * step - 1;
}

std::uint64_t PhaseHistogram::total_count() const {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  return total;
}

double PhaseHistogram::mean_ns() const {
  const std::uint64_t total = total_count();
  return total == 0 ? 0.0
                    : static_cast<double>(sum_ns) /
                          static_cast<double>(total);
}

std::uint64_t PhaseHistogram::percentile_ns(double q) const {
  const std::size_t idx = percentile_bucket(counts, q);
  if (idx >= kHistNumBuckets) return 0;  // empty histogram
  // The top bucket is open-ended (clamped recordings); report the exact
  // observed maximum instead of its synthetic bound.
  if (idx == kHistNumBuckets - 1 && max_ns > bucket_upper_ns(idx)) {
    return max_ns;
  }
  return std::min(bucket_upper_ns(idx), max_ns);
}

PhaseHistogram PhaseHistogram::delta_since(const PhaseHistogram& base) const {
  PhaseHistogram d;
  for (std::size_t i = 0; i < kHistNumBuckets; ++i) {
    d.counts[i] =
        counts[i] >= base.counts[i] ? counts[i] - base.counts[i] : 0;
  }
  d.sum_ns = sum_ns >= base.sum_ns ? sum_ns - base.sum_ns : 0;
  d.max_ns = max_ns;  // cumulative-max semantics, see header
  return d;
}

namespace detail {

void histogram_record(Phase p, std::uint64_t ns) {
  HistBlock& block = g_blocks.mine();
  const auto phase = static_cast<std::size_t>(p);
  // relaxed (all three): bucket counts / sums are commutative monotonic
  // tallies read by histograms_snapshot(), which is advisory by contract
  // while writers are live; no other data is published through them.
  block.counts[phase][bucket_index(ns)].fetch_add(1,
                                                  std::memory_order_relaxed);
  block.sum_ns[phase].fetch_add(ns, std::memory_order_relaxed);
  // relaxed load: seeds the advisory-max CAS loop below, same argument.
  std::uint64_t prev = block.max_ns[phase].load(std::memory_order_relaxed);
  while (prev < ns &&
         // relaxed CAS: the max is a monotonic advisory watermark, same
         // argument as the tallies above.
         !block.max_ns[phase].compare_exchange_weak(
             prev, ns, std::memory_order_relaxed,
             std::memory_order_relaxed)) {
  }
  count(Counter::kHistogramRecords);
}

}  // namespace detail

bool set_histograms_enabled(bool enabled) {
  // seq_cst exchange: cold toggle, strongest order keeps reasoning trivial.
  return detail::g_histograms_enabled.exchange(enabled);
}

HistogramSnapshot histograms_snapshot() {
  HistogramSnapshot snap;
  g_blocks.for_each_claimed([&](std::size_t, const HistBlock& block) {
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      PhaseHistogram& out = snap.phases[p];
      for (std::size_t i = 0; i < kHistNumBuckets; ++i) {
        // relaxed: see histogram_record — totals are advisory while
        // writers run.
        out.counts[i] += block.counts[p][i].load(std::memory_order_relaxed);
      }
      // relaxed (both): advisory aggregation, as above.
      out.sum_ns += block.sum_ns[p].load(std::memory_order_relaxed);
      out.max_ns = std::max(
          out.max_ns, block.max_ns[p].load(std::memory_order_relaxed));
    }
  });
  return snap;
}

void reset_histograms() {
  g_blocks.for_each_claimed([](std::size_t, HistBlock& block) {
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      for (std::atomic<std::uint64_t>& c : block.counts[p]) {
        // relaxed: reset is racy-by-contract against live producers, same
        // as reset_counters.
        c.store(0, std::memory_order_relaxed);
      }
      // relaxed (both): as above.
      block.sum_ns[p].store(0, std::memory_order_relaxed);
      block.max_ns[p].store(0, std::memory_order_relaxed);
    }
  });
}

}  // namespace pmpr::obs
