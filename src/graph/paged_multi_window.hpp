// Out-of-core multi-window store (the --memory-budget-mb paging policy).
//
// MultiWindowSet keeps every part's adjacency resident, so the working set
// is Σ_w bytes(E_w) — which for fig5-scale runs exceeds small-memory
// machines. PagedMultiWindowSet instead serializes each part's
// chunk-compressed in-adjacency (io/compressed_csr.hpp) into one store
// file during a *sequential* build (build → compress → append → discard,
// so peak build residency is one raw part), then mmaps the store and hands
// out parts on demand:
//
//   * acquire(p) maps part p's payload as a zero-copy view
//     (CompressedTemporalCsr::map_at) and returns an RAII Lease pinning it.
//   * Resident payload bytes are charged against a hard budget; when an
//     acquire would overflow it, least-recently-used *unpinned* parts are
//     evicted first. Eviction drops the part's CompressedTemporalCsr view
//     and madvise(MADV_DONTNEED)s its payload range — clean file-backed
//     pages, so the kernel frees them immediately and RSS shrinks.
//   * If the pinned parts alone exceed the budget the acquire throws
//     pmpr::InvariantError: the budget is a hard cap, not a hint.
//
// Part metadata (window range, span, local_to_global) stays resident: the
// vertex maps are O(|V_w|) against the O(|E_w|) payload and the driver
// needs them to scatter local ranks into the global vector after the part
// is already evictable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/multi_window.hpp"
#include "graph/window.hpp"
#include "io/compressed_csr.hpp"
#include "io/mmap_file.hpp"
#include "obs/memory.hpp"
#include "util/thread_annotations.hpp"

namespace pmpr {

/// Eviction/refault accounting for one store's lifetime.
struct PagingStats {
  std::size_t parts_evicted = 0;   ///< Evictions (budget pressure only).
  std::size_t part_refaults = 0;   ///< Re-acquires of an evicted part.
  std::size_t bytes_evicted = 0;   ///< Payload bytes dropped by evictions.
  std::size_t peak_resident_bytes = 0;  ///< Max charged payload at any time.
  /// Max *measured* residency of the mapped parts' payloads (mincore page
  /// scan, sampled on every part map). The ground truth the charged peak is
  /// audited against: it counts only bytes of mapped payloads, so it never
  /// exceeds the charge, and falls below it for pages the kernel dropped
  /// from the page cache. Unmapped parts are not scanned — the store file
  /// stays cached after build() writes it.
  std::size_t measured_resident_peak_bytes = 0;
  std::size_t store_bytes = 0;     ///< On-disk store file size.
  std::size_t raw_bytes = 0;       ///< Σ raw (col+time) bytes — the
                                   ///< working set an in-RAM run needs.
  std::size_t chunks_total = 0;    ///< Σ chunks across all parts.
};

class PagedMultiWindowSet : public obs::ResidencyProbe {
 public:
  struct Options {
    std::size_t num_parts = 1;
    PartitionPolicy policy = PartitionPolicy::kUniformWindows;
    /// Hard cap on resident payload bytes. 0 means "one part at a time":
    /// the cap adjusts to the largest single part.
    std::size_t budget_bytes = 0;
    /// Store file location; empty picks a unique file under the system
    /// temp directory. The file is deleted when the set is destroyed.
    std::string spill_path;
    std::size_t target_chunk_entries = io::kDefaultChunkEntries;
  };

  /// Sequential out-of-core build: decomposes exactly like
  /// MultiWindowSet::build (same partition_boundaries, same
  /// build_multi_window_part), but only one raw part is ever resident.
  /// Throws pmpr::InvariantError on unsorted events / bad spec / IO
  /// failure. Heap-allocated because leases keep back-pointers and the
  /// store embeds a mutex (non-movable). Each part's row sort runs on
  /// `pool` (nullptr = global pool).
  static std::unique_ptr<PagedMultiWindowSet> build(
      const TemporalEdgeList& events, const WindowSpec& spec,
      const Options& opts, par::ThreadPool* pool = nullptr);

  PagedMultiWindowSet(const PagedMultiWindowSet&) = delete;
  PagedMultiWindowSet& operator=(const PagedMultiWindowSet&) = delete;
  ~PagedMultiWindowSet() override;

  /// RAII pin: the part stays resident (never evicted) while any Lease on
  /// it lives. Move-only; released on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : set_(other.set_), part_(other.part_) {
      other.set_ = nullptr;
    }
    Lease& operator=(Lease&& other) noexcept;
    ~Lease() { release(); }

    [[nodiscard]] bool valid() const { return set_ != nullptr; }
    /// The pinned part: metadata + in_compressed view (is_compressed()
    /// always true; the raw `in` CSR stays empty).
    [[nodiscard]] const MultiWindowGraph& part() const;
    void release();

   private:
    friend class PagedMultiWindowSet;
    Lease(PagedMultiWindowSet* set, std::size_t part) noexcept
        : set_(set), part_(part) {}
    PagedMultiWindowSet* set_ = nullptr;
    std::size_t part_ = 0;
  };

  /// Maps (or re-uses) part p and pins it. Evicts LRU unpinned parts as
  /// needed to stay under the budget; throws pmpr::InvariantError if the
  /// pinned residency alone cannot fit. Thread-safe.
  [[nodiscard]] Lease acquire(std::size_t p);

  [[nodiscard]] const WindowSpec& spec() const { return spec_; }
  [[nodiscard]] VertexId num_global_vertices() const { return num_global_; }
  [[nodiscard]] std::size_t num_parts() const { return parts_.size(); }
  [[nodiscard]] std::size_t budget_bytes() const { return budget_bytes_; }
  [[nodiscard]] const std::string& store_path() const { return store_path_; }

  /// Always-resident metadata of part p (window range, span, event count,
  /// vertex map) — the adjacency may or may not be mapped.
  [[nodiscard]] const MultiWindowGraph& part_meta(std::size_t p) const {
    return parts_[p].graph;
  }
  [[nodiscard]] std::size_t part_index_for_window(std::size_t w) const;

  /// Charged resident payload bytes right now. Thread-safe.
  [[nodiscard]] std::size_t resident_bytes() const;
  /// Snapshot of the paging counters. Thread-safe.
  [[nodiscard]] PagingStats stats() const;

  /// obs::ResidencyProbe monitor reads, feeding the sampler's
  /// mem.oocore_resident / mem.budget trace tracks. The residency read
  /// takes mu_ to see which parts are mapped; file_ and budget_bytes_ are
  /// set once in build() before the probe registers.
  [[nodiscard]] std::uint64_t probe_resident_bytes() const override;
  [[nodiscard]] std::uint64_t probe_budget_bytes() const override;

 private:
  PagedMultiWindowSet() = default;

  struct PartSlot {
    MultiWindowGraph graph;  ///< Metadata always; in_compressed when mapped.
    std::uint64_t store_offset = 0;  ///< Serialized blob range in the file.
    std::uint64_t store_size = 0;
    std::size_t payload_bytes = 0;   ///< Budget charge while resident.
    std::size_t pin_count = 0;
    std::uint64_t last_use = 0;      ///< LRU clock value of the last pin.
    bool ever_mapped = false;        ///< Distinguishes refaults from faults.
    obs::MemCharge charge;  ///< payload_bytes under kOocorePayload while
                            ///< mapped (reset on map, released on evict).
  };

  void release_pin(std::size_t p);
  /// mincore-measured resident bytes of the payloads of the parts mapped
  /// right now.
  std::size_t mapped_resident_bytes() const PMPR_REQUIRES(mu_);
  /// Evicts LRU unpinned parts until `need` more bytes fit. Caller holds
  /// mu_.
  void make_room(std::size_t need) PMPR_REQUIRES(mu_);

  WindowSpec spec_;
  VertexId num_global_ = 0;
  std::size_t budget_bytes_ = 0;
  std::string store_path_;
  bool owns_store_file_ = false;
  std::shared_ptr<io::MmapFile> file_;

  mutable Mutex mu_;
  // Slot layout is fixed after build (never resized), and the metadata
  // members of each slot's graph are immutable — readable without the
  // lock. The residency state (graph.in_compressed, pin_count, last_use,
  // ever_mapped) mutates only under mu_; a held pin guarantees
  // in_compressed stays set, which is what makes Lease::part() lock-free.
  std::vector<PartSlot> parts_;
  std::size_t resident_bytes_ PMPR_GUARDED_BY(mu_) = 0;
  std::uint64_t clock_ PMPR_GUARDED_BY(mu_) = 0;
  PagingStats stats_ PMPR_GUARDED_BY(mu_);
};

}  // namespace pmpr
