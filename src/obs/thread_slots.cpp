#include "obs/thread_slots.hpp"

namespace pmpr::obs {

namespace {

constexpr std::size_t kLabelLen = sizeof(ThreadLabel::text);
constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

std::atomic<std::size_t> g_next_index{0};
thread_local std::size_t tls_index = kNoIndex;

/// One label per slot (the overflow slot's is shared, last writer wins).
/// Static storage, so the crash handler reads it without any publication
/// step; per-character atomics, so a relabel racing a reader is no data
/// race.
std::array<std::atomic<char>, kLabelLen> g_labels[kOwnedThreadSlots + 1];

}  // namespace

std::size_t thread_slot_index() {
  if (tls_index == kNoIndex) {
    // seq_cst fetch_add: runs once per thread; no need to reason about a
    // weaker order.
    tls_index = g_next_index.fetch_add(1);
  }
  return tls_index;
}

std::size_t thread_slots_claimed() {
  // seq_cst load of a cold gauge; mirrors the claim above.
  return g_next_index.load();
}

void set_thread_slot_label(std::string_view label) {
  auto& text = g_labels[std::min(thread_slot_index(), kOwnedThreadSlots)];
  const std::size_t n = std::min(label.size(), kLabelLen - 1);
  // relaxed (all): the label is advisory text, published to no one; the
  // per-character atomics only keep a concurrent reader race-free.
  for (std::size_t i = 0; i < n; ++i) {
    text[i].store(label[i], std::memory_order_relaxed);
  }
  text[n].store('\0', std::memory_order_relaxed);  // relaxed: as above
}

// PMPR_ASYNC_SIGNAL_SAFE_BEGIN

ThreadLabel thread_slot_label(std::size_t index) {
  const auto& text = g_labels[std::min(index, kOwnedThreadSlots)];
  ThreadLabel out{};
  for (std::size_t i = 0; i + 1 < kLabelLen; ++i) {
    // relaxed: advisory text, see set_thread_slot_label.
    out.text[i] = text[i].load(std::memory_order_relaxed);
    if (out.text[i] == '\0') break;
  }
  return out;
}

// PMPR_ASYNC_SIGNAL_SAFE_END

}  // namespace pmpr::obs
