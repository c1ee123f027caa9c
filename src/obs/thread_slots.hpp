// Runtime telemetry: the one per-thread slot registry behind every
// fixed-slot pillar (counters, histograms, memory tallies, flight-recorder
// rings, heartbeats) and the per-thread labels.
//
// Each thread claims one process-wide slot index on first use
// (thread_slot_index()). A ThreadSlots<Block, kOwned> registry hands that
// thread block min(index, kOwned): threads beyond the owned pool share the
// last (overflow) block, whose atomic fields make their writes contended
// but never lost. Because every registry keys on the same index, a thread
// has one tid in the blackbox, the heartbeat table and the crash report.
//
// A registry is a constant-initialized namespace-scope object; its blocks
// are allocated on first use and intentionally leaked, so pool workers may
// still record while static destructors run at exit. The blocks hang off
// an atomic pointer: the crash handler loads it and bails on null instead
// of risking lazy construction in signal context. Readers are advisory
// while writers are live, exact once the producing threads quiesce.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <string_view>

namespace pmpr::obs {

/// Owned blocks per registry, unless a block is large (the histogram's is
/// ~11 KiB, so it owns 64).
inline constexpr std::size_t kOwnedThreadSlots = 256;

/// The calling thread's process-wide slot index, claimed on first call.
[[nodiscard]] std::size_t thread_slot_index();

/// Slot indices claimed so far. Async-signal-safe (one atomic load).
[[nodiscard]] std::size_t thread_slots_claimed();

/// Labels the calling thread's slot ("pool.worker-3", "main"), copying up
/// to 31 bytes. Ungated: threads name themselves once, at spawn, through
/// obs::set_thread_name().
void set_thread_slot_label(std::string_view label);

/// A copied-out slot label, NUL-terminated.
struct ThreadLabel {
  char text[32];
};

/// Label of slot `index` ("" when never set). Async-signal-safe: a copy
/// made with per-character relaxed loads, advisory while the owner is
/// relabelling (possibly a mix of two labels, never a torn character).
[[nodiscard]] ThreadLabel thread_slot_label(std::size_t index);

template <class Block, std::size_t kOwned>
class ThreadSlots {
 public:
  static constexpr std::size_t kCapacity = kOwned + 1;
  using Blocks = std::array<Block, kCapacity>;

  /// The calling thread's block (allocating the registry on first use).
  Block& mine() { return ensure()[std::min(thread_slot_index(), kOwned)]; }

  /// Allocates and publishes the blocks now; idempotent. Install paths
  /// call it so a later signal handler only loads a published pointer.
  Blocks& ensure() {
    // acquire: pairs with the release publication below, so a non-null
    // pointer implies fully constructed blocks.
    Blocks* blocks = blocks_.load(std::memory_order_acquire);
    if (blocks != nullptr) return *blocks;
    auto* fresh = new Blocks();
    // acq_rel CAS: release publishes the construction; acquire on failure
    // synchronizes with the thread that won the installation race.
    if (blocks_.compare_exchange_strong(blocks, fresh,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      return *fresh;
    }
    delete fresh;  // lost the race; `blocks` now holds the winner
    return *blocks;
  }

  // PMPR_ASYNC_SIGNAL_SAFE_BEGIN

  /// Blocks handed out so far (the shared overflow block counts once).
  [[nodiscard]] std::size_t claimed() const {
    return std::min(thread_slots_claimed(), kCapacity);
  }

  /// Calls f(index, block) for every claimed block; nothing before the
  /// registry's first use. Allocation-free, so the crash path may call it
  /// with an async-signal-safe `f`.
  template <class F>
  void for_each_claimed(F&& f) const {
    // acquire: see ensure().
    Blocks* blocks = blocks_.load(std::memory_order_acquire);
    if (blocks == nullptr) return;
    const std::size_t n = claimed();
    for (std::size_t i = 0; i < n; ++i) f(i, (*blocks)[i]);
  }

  // PMPR_ASYNC_SIGNAL_SAFE_END

 private:
  std::atomic<Blocks*> blocks_{nullptr};
};

}  // namespace pmpr::obs
