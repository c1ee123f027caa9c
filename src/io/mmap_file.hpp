// Read-only memory-mapped files with explicit access-pattern hints — the
// storage substrate of the out-of-core multi-window store
// (graph/paged_multi_window.hpp).
//
// On POSIX this is open + mmap + madvise; the paged store's eviction is
// advise(kDontNeed), which drops the clean file-backed pages and shrinks
// RSS without invalidating the mapping (the next touch refaults from
// disk). On platforms without mmap — or when the map call fails — the
// whole file is read into an anonymous buffer and advise() becomes a
// no-op: same bytes, no paging control.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace pmpr::io {

/// Paging hint forwarded to madvise(2) where available.
enum class Advice {
  kNormal,      ///< MADV_NORMAL: default kernel readahead.
  kSequential,  ///< MADV_SEQUENTIAL: aggressive readahead, early reclaim.
  kWillNeed,    ///< MADV_WILLNEED: prefetch the range now.
  kDontNeed,    ///< MADV_DONTNEED: drop the pages (refault on next touch).
};

class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile();
  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// Maps `path` read-only. Throws pmpr::InvariantError when the file
  /// cannot be opened or statted. An empty file yields an empty span.
  static MmapFile open(const std::string& path);

  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {data_, size_};
  }
  /// False when the read-into-RAM fallback is active (advise is a no-op
  /// and eviction cannot reclaim anything).
  [[nodiscard]] bool is_mapped() const { return mapped_; }

  /// Hints the kernel about [offset, offset + length). The offset is
  /// aligned down to a page boundary internally; out-of-range lengths are
  /// clamped. Advisory only: failures are ignored (the data stays
  /// correct, the paging behavior merely degrades).
  void advise(std::size_t offset, std::size_t length, Advice advice) const;

  /// Bytes of [offset, offset + length) currently resident in physical
  /// memory, measured with an mincore(2) page scan — the ground truth the
  /// paged store's charged residency is audited against. A resident page
  /// counts only its overlap with the range, so the result never exceeds
  /// the (clamped) length. The fallback
  /// buffer counts as fully resident (it IS the anonymous memory). Returns
  /// 0 when the range is empty or the scan fails.
  [[nodiscard]] std::size_t resident_bytes(std::size_t offset,
                                           std::size_t length) const;

  /// Residency of the whole mapping.
  [[nodiscard]] std::size_t resident_bytes() const {
    return resident_bytes(0, size_);
  }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::vector<std::uint8_t> fallback_;
};

}  // namespace pmpr::io
