// Runtime telemetry: tagged memory accounting + residency probes (the
// memory observability pillar).
//
// PR 8 made memory the governing resource (--memory-budget-mb drives LRU
// paging over mmapped compressed parts), but until this pillar the obs
// layer only *estimated* footprints. Three instruments fix that:
//
//   1. Tagged allocation accounting. Every big allocation site charges its
//      bytes to a MemTag (graph arrays, compiled kernels, decode scratch,
//      paged oocore payloads, obs itself). Charges flow through MemCharge
//      RAII members or the TaggedAlloc STL allocator; per-thread monotone
//      alloc/free tallies live in an obs::ThreadSlots registry
//      (obs/thread_slots.hpp), and a small set of global padded live/peak
//      pairs maintains watermarks (live can dip and rise, so it cannot
//      live in per-thread blocks).
//   2. Process residency readers: current RSS from /proc/self/statm and
//      lifetime peak RSS from getrusage, plus a ResidencyProbe interface
//      the paged store implements so the sampler can chart real (mincore)
//      store residency against the budget. Defining the contract here (and
//      not in graph/) keeps obs below graph in the module DAG.
//   3. Fixed Chrome-trace counter-track names (mem.rss, mem.tagged.<tag>,
//      mem.oocore_resident, mem.budget) for obs::Sampler.
//
// Cost discipline: record_alloc/record_free are a single relaxed atomic
// load + branch when accounting is disabled. Charge sites are container
// builds — never per-element; hot loops must not call these.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

namespace pmpr::obs {

/// What a charged allocation is for. Keep kMemTagNames and kMemTraceTracks
/// in memory.cpp in sync.
enum class MemTag : std::size_t {
  kGraph = 0,       ///< Temporal CSR adjacency arrays (row_ptr/col/time).
  kCompiledKernel,  ///< CompiledBatchCsr / CompiledWindowCsr structures.
  kDecodeScratch,   ///< io::DecodeScratch chunk-decode buffers.
  kOocorePayload,   ///< Mapped compressed part payloads in the paged store.
  kObs,             ///< The telemetry layer's own buffers (sampler ring).
  kOther,           ///< Anything charged without a more specific tag.
};
inline constexpr std::size_t kNumMemTags = 6;

/// Human-readable snake_case name (stable; used as JSON keys).
[[nodiscard]] std::string_view to_string(MemTag t);

/// The Chrome-trace counter-track name for a tag ("mem.tagged.<tag>").
/// record_counter_sample() stores only the pointer, so these are fixed
/// string literals with static storage duration.
[[nodiscard]] const char* trace_track_name(MemTag t);

/// Point-in-time aggregate for one tag. alloc/free are monotone tallies
/// summed over the per-thread blocks (exact once producers quiesce, like
/// counters); live/peak are the global watermark pair.
struct MemTagSnapshot {
  std::uint64_t alloc_bytes = 0;  ///< Total bytes ever charged.
  std::uint64_t free_bytes = 0;   ///< Total bytes ever released.
  std::int64_t live_bytes = 0;    ///< Currently charged (alloc - free).
  std::uint64_t peak_bytes = 0;   ///< Highest observed live watermark.
};

/// Aggregate of every tag plus the cross-tag total. The total peak is a
/// watermark of the *summed* live bytes, which is what "peak memory" means
/// for a run — it is not the sum of per-tag peaks (those may not coincide
/// in time).
struct MemorySnapshot {
  std::array<MemTagSnapshot, kNumMemTags> tags{};
  std::int64_t total_live_bytes = 0;
  std::uint64_t total_peak_bytes = 0;

  [[nodiscard]] const MemTagSnapshot& operator[](MemTag t) const {
    return tags[static_cast<std::size_t>(t)];
  }
};

namespace detail {
/// Inline so memory_accounting_enabled() compiles to one load per call.
inline std::atomic<bool> g_memory_accounting_enabled{false};
/// Out-of-line slow path: claims this thread's tally block on first use,
/// records the tally, and maintains the global live/peak watermarks.
void memory_add(MemTag t, std::uint64_t bytes, bool is_free);
}  // namespace detail

/// Whether record_alloc/record_free record anything. The single check on
/// the disabled hot path.
[[nodiscard]] inline bool memory_accounting_enabled() {
  // relaxed: an advisory on/off gate — stale reads only delay when
  // accounting starts/stops by a few events; no data is published through
  // this flag.
  return detail::g_memory_accounting_enabled.load(std::memory_order_relaxed);
}

/// Enables/disables memory accounting. Returns the previous setting.
/// The gate must be constant over any raw record_alloc/record_free or
/// TaggedAlloc allocation's lifetime or live totals drift (MemCharge is
/// immune: it remembers what it actually charged).
bool set_memory_accounting_enabled(bool enabled);

/// Charges `bytes` against `tag`. Near-zero cost when disabled. Safe from
/// any thread, including pool workers.
inline void record_alloc(MemTag tag, std::size_t bytes) {
  if (bytes == 0 || !memory_accounting_enabled()) return;
  detail::memory_add(tag, bytes, /*is_free=*/false);
}

/// Releases `bytes` previously charged against `tag`. Callers own the
/// symmetry with record_alloc — prefer MemCharge, which owns it for you.
inline void record_free(MemTag tag, std::size_t bytes) {
  if (bytes == 0 || !memory_accounting_enabled()) return;
  detail::memory_add(tag, bytes, /*is_free=*/true);
}

/// RAII ownership of one tagged byte charge. Embed as a member next to the
/// container it describes and reset() it whenever the container's real
/// footprint changes; the destructor releases whatever was last charged.
/// Copying re-charges the same bytes (the copy owns its own release), so
/// containers holding a MemCharge keep value semantics. If accounting is
/// disabled at reset() time nothing is charged and nothing will be
/// released — the pair stays symmetric across gate flips by construction.
class MemCharge {
 public:
  MemCharge() = default;
  MemCharge(MemTag tag, std::size_t bytes) { reset(tag, bytes); }

  MemCharge(const MemCharge& other) : tag_(other.tag_), bytes_(other.bytes_) {
    if (bytes_ != 0) detail::memory_add(tag_, bytes_, /*is_free=*/false);
  }
  MemCharge& operator=(const MemCharge& other) {
    if (this == &other) return *this;
    release();
    tag_ = other.tag_;
    bytes_ = other.bytes_;
    if (bytes_ != 0) detail::memory_add(tag_, bytes_, /*is_free=*/false);
    return *this;
  }
  MemCharge(MemCharge&& other) noexcept
      : tag_(other.tag_), bytes_(other.bytes_) {
    other.bytes_ = 0;
  }
  MemCharge& operator=(MemCharge&& other) noexcept {
    if (this == &other) return *this;
    release();
    tag_ = other.tag_;
    bytes_ = other.bytes_;
    other.bytes_ = 0;
    return *this;
  }
  ~MemCharge() { release(); }

  /// Releases the previous charge, then charges `bytes` under `tag`. A
  /// disabled gate at call time charges nothing (bytes() reads 0).
  void reset(MemTag tag, std::size_t bytes) {
    release();
    tag_ = tag;
    if (bytes != 0 && memory_accounting_enabled()) {
      bytes_ = bytes;
      detail::memory_add(tag_, bytes_, /*is_free=*/false);
    }
  }

  /// Releases the current charge early (idempotent).
  void release() {
    if (bytes_ != 0) {
      detail::memory_add(tag_, bytes_, /*is_free=*/true);
      bytes_ = 0;
    }
  }

  [[nodiscard]] MemTag tag() const { return tag_; }
  /// Bytes actually charged (0 when the gate was off at reset()).
  [[nodiscard]] std::size_t bytes() const { return bytes_; }

 private:
  MemTag tag_ = MemTag::kOther;
  std::size_t bytes_ = 0;
};

/// Minimal STL-compatible allocator that charges every allocation to Tag.
/// Wraps std::allocator (so the naked-new/operator-new bans stay moot).
/// The accounting gate must be constant over each allocation's lifetime;
/// containers built before set_memory_accounting_enabled(true) and freed
/// after ...(false) will skew live totals.
template <typename T, MemTag Tag>
class TaggedAlloc {
 public:
  using value_type = T;
  /// Non-type Tag parameter defeats allocator_traits' automatic
  /// Alloc<U, Args...> rebind — spell it out.
  template <typename U>
  struct rebind {
    using other = TaggedAlloc<U, Tag>;
  };

  TaggedAlloc() = default;
  template <typename U>
  // NOLINTNEXTLINE(google-explicit-constructor): rebind conversion.
  TaggedAlloc(const TaggedAlloc<U, Tag>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    record_alloc(Tag, n * sizeof(T));
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    std::allocator<T>{}.deallocate(p, n);
    record_free(Tag, n * sizeof(T));
  }

  friend bool operator==(const TaggedAlloc&, const TaggedAlloc&) {
    return true;
  }
  friend bool operator!=(const TaggedAlloc&, const TaggedAlloc&) {
    return false;
  }
};

/// Sums the per-thread tally blocks and reads the live/peak watermarks.
/// Advisory while producers run; exact after they quiesce.
[[nodiscard]] MemorySnapshot memory_snapshot();

/// Zeroes every tally block and watermark. Only meaningful while no
/// producer is mid-flight (racy-by-contract, like reset_counters). Live
/// MemCharge objects still release their bytes later, so resetting under
/// outstanding charges drives live negative — test-only territory.
void reset_memory_accounting();

/// Current resident set size of the process in bytes, read from
/// /proc/self/statm. Returns 0 where unavailable (non-Linux).
[[nodiscard]] std::uint64_t current_rss_bytes();

/// Process-lifetime peak resident set size in bytes (getrusage ru_maxrss,
/// normalized to bytes across platforms). Returns 0 on failure.
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// Monitor-read contract letting the sampler chart a paged store's real
/// (mincore-measured) residency against its budget without obs depending
/// on graph/ or io/ — the consumer layer defines the interface, the
/// provider implements it, mirroring obs::SchedulerProbe. All methods are
/// advisory monitor reads and must be safe to call from the sampler thread
/// at any instant between register and unregister.
class ResidencyProbe {
 public:
  virtual ~ResidencyProbe() = default;

  /// Bytes of the probe's backing store currently resident in physical
  /// memory (an mincore page scan, not a charge).
  [[nodiscard]] virtual std::uint64_t probe_resident_bytes() const = 0;

  /// The configured paging budget in bytes (0 = unbounded).
  [[nodiscard]] virtual std::uint64_t probe_budget_bytes() const = 0;
};

/// Installs `probe` as the store the sampler charts (one at a time; a
/// second registration replaces the first).
void register_residency_probe(const ResidencyProbe* probe);

/// Removes `probe` if it is the registered one. Blocks until any in-flight
/// sampler read has completed, so the caller may destroy the probe
/// immediately after this returns.
void unregister_residency_probe(const ResidencyProbe* probe);

/// Sampler-side read: fills both out-params from the registered probe and
/// returns true, or returns false when no probe is registered.
[[nodiscard]] bool probed_residency(std::uint64_t* resident_bytes,
                                    std::uint64_t* budget_bytes);

}  // namespace pmpr::obs
