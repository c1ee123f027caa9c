#include "obs/memory.hpp"

#include <fstream>

#include "obs/thread_slots.hpp"
#include "util/thread_annotations.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#define PMPR_OBS_HAVE_RUSAGE 1
#endif

namespace pmpr::obs {

namespace {

constexpr std::array<std::string_view, kNumMemTags> kMemTagNames = {
    "graph",          "compiled_kernel", "decode_scratch",
    "oocore_payload", "obs",             "other",
};

/// Literal track names: record_counter_sample keeps only the pointer.
constexpr std::array<const char*, kNumMemTags> kMemTraceTracks = {
    "mem.tagged.graph",          "mem.tagged.compiled_kernel",
    "mem.tagged.decode_scratch", "mem.tagged.oocore_payload",
    "mem.tagged.obs",            "mem.tagged.other",
};

/// One padded block of monotone alloc/free tallies per registered thread
/// (kNumMemTags * 2 * 8 bytes rounded up to whole cache lines, so adjacent
/// threads never false-share).
struct alignas(64) TallyBlock {
  std::array<std::atomic<std::uint64_t>, kNumMemTags> alloc_bytes{};
  std::array<std::atomic<std::uint64_t>, kNumMemTags> free_bytes{};
};

/// A global live/peak watermark pair, padded so the per-tag pairs don't
/// false-share. Unlike the tallies these cannot be per-thread: live dips
/// and rises across threads, and a watermark of the true combined total
/// needs a single accumulator.
struct alignas(64) LivePeak {
  std::atomic<std::int64_t> live{0};
  std::atomic<std::uint64_t> peak{0};
};

ThreadSlots<TallyBlock, kOwnedThreadSlots> g_tallies;

/// Per-tag live/peak pairs plus, at index kNumMemTags, the cross-tag total.
/// Constant-initialized static storage: outlives every thread.
std::array<LivePeak, kNumMemTags + 1> g_live;
constexpr std::size_t kTotalPair = kNumMemTags;

/// Applies a signed delta to one live accumulator and advances its peak
/// watermark. The watermark is exact when charges are serialized (every
/// current charge site builds containers under a lock or on one thread)
/// and conservative-low by at most the in-flight deltas otherwise.
void update_live(LivePeak& lp, std::int64_t delta) {
  // relaxed: live is a commutative tally read by memory_snapshot(), which
  // is advisory by contract while writers are live; no other data is
  // published through it.
  const std::int64_t now = lp.live.fetch_add(delta, std::memory_order_relaxed)
                           + delta;
  if (delta <= 0 || now <= 0) return;
  const auto candidate = static_cast<std::uint64_t>(now);
  // relaxed CAS-max loop: the peak is a monotone watermark over the same
  // advisory tally; ordering against other memory is irrelevant.
  std::uint64_t cur = lp.peak.load(std::memory_order_relaxed);
  while (candidate > cur &&
         // relaxed: same monotone-watermark rationale as the load above.
         !lp.peak.compare_exchange_weak(cur, candidate,
                                        std::memory_order_relaxed)) {
  }
}

/// Registered residency probe (one at a time). Reads and registration
/// share g_probe_mu so unregister_residency_probe() blocks until any
/// in-flight sampler read completes.
Mutex g_probe_mu;
const ResidencyProbe* g_probe PMPR_GUARDED_BY(g_probe_mu) = nullptr;

}  // namespace

std::string_view to_string(MemTag t) {
  return kMemTagNames[static_cast<std::size_t>(t)];
}

const char* trace_track_name(MemTag t) {
  return kMemTraceTracks[static_cast<std::size_t>(t)];
}

namespace detail {

void memory_add(MemTag t, std::uint64_t bytes, bool is_free) {
  const auto idx = static_cast<std::size_t>(t);
  TallyBlock& block = g_tallies.mine();
  // relaxed: monotone commutative tallies, same contract as counter_add —
  // memory_snapshot() is advisory while writers are live.
  (is_free ? block.free_bytes : block.alloc_bytes)[idx].fetch_add(
      bytes, std::memory_order_relaxed);
  const std::int64_t delta = is_free ? -static_cast<std::int64_t>(bytes)
                                     : static_cast<std::int64_t>(bytes);
  update_live(g_live[idx], delta);
  update_live(g_live[kTotalPair], delta);
}

}  // namespace detail

bool set_memory_accounting_enabled(bool enabled) {
  // seq_cst exchange: cold toggle, strongest order keeps reasoning trivial.
  return detail::g_memory_accounting_enabled.exchange(enabled);
}

MemorySnapshot memory_snapshot() {
  MemorySnapshot snap;
  g_tallies.for_each_claimed([&](std::size_t, const TallyBlock& block) {
    for (std::size_t i = 0; i < kNumMemTags; ++i) {
      // relaxed: see memory_add — totals are advisory while writers run.
      snap.tags[i].alloc_bytes +=
          block.alloc_bytes[i].load(std::memory_order_relaxed);
      // relaxed: as above.
      snap.tags[i].free_bytes +=
          block.free_bytes[i].load(std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < kNumMemTags; ++i) {
    // relaxed: watermark reads over the same advisory tallies.
    snap.tags[i].live_bytes = g_live[i].live.load(std::memory_order_relaxed);
    snap.tags[i].peak_bytes = g_live[i].peak.load(std::memory_order_relaxed);
  }
  snap.total_live_bytes =
      // relaxed: as above.
      g_live[kTotalPair].live.load(std::memory_order_relaxed);
  snap.total_peak_bytes =
      // relaxed: as above.
      g_live[kTotalPair].peak.load(std::memory_order_relaxed);
  return snap;
}

void reset_memory_accounting() {
  g_tallies.for_each_claimed([](std::size_t, TallyBlock& block) {
    for (std::size_t i = 0; i < kNumMemTags; ++i) {
      // relaxed: reset is documented as racy-by-contract against live
      // producers; snapshot totals remain advisory.
      block.alloc_bytes[i].store(0, std::memory_order_relaxed);
      block.free_bytes[i].store(0, std::memory_order_relaxed);
    }
  });
  for (LivePeak& lp : g_live) {
    // relaxed: as above.
    lp.live.store(0, std::memory_order_relaxed);
    lp.peak.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t current_rss_bytes() {
#if defined(__linux__)
  // /proc/self/statm: "size resident shared text lib data dt" in pages.
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages_total = 0;
  std::uint64_t pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) return 0;
  return pages_resident * static_cast<std::uint64_t>(page);
#else
  return 0;
#endif
}

std::uint64_t peak_rss_bytes() {
#if PMPR_OBS_HAVE_RUSAGE
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  // macOS reports ru_maxrss in bytes.
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
  // Linux reports ru_maxrss in KiB.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

void register_residency_probe(const ResidencyProbe* probe) {
  LockGuard lock(g_probe_mu);
  g_probe = probe;
}

void unregister_residency_probe(const ResidencyProbe* probe) {
  LockGuard lock(g_probe_mu);
  if (g_probe == probe) g_probe = nullptr;
}

bool probed_residency(std::uint64_t* resident_bytes,
                      std::uint64_t* budget_bytes) {
  LockGuard lock(g_probe_mu);
  if (g_probe == nullptr) return false;
  *resident_bytes = g_probe->probe_resident_bytes();
  *budget_bytes = g_probe->probe_budget_bytes();
  return true;
}

}  // namespace pmpr::obs
