#include "pagerank/window_state.hpp"

#include <algorithm>
#include <cassert>

namespace pmpr {

LaneSpan lane_span_containing(const WindowSpec& spec, const SpmmBatch& batch,
                              Timestamp t) {
  const auto [wlo, whi] = spec.windows_containing(t);  // [wlo, whi)
  if (wlo >= whi) return {};
  // Lane k holds window first_window + k*stride; find the k range
  // intersecting [wlo, whi). The range is contiguous in k.
  const auto first = static_cast<std::int64_t>(batch.first_window);
  const auto stride = static_cast<std::int64_t>(batch.window_stride);
  const auto lo_num = static_cast<std::int64_t>(wlo) - first;
  const auto hi_num = static_cast<std::int64_t>(whi) - 1 - first;
  if (hi_num < 0) return {};
  const std::int64_t k_lo = lo_num <= 0 ? 0 : (lo_num + stride - 1) / stride;
  std::int64_t k_hi = hi_num / stride;
  k_hi = std::min<std::int64_t>(k_hi,
                                static_cast<std::int64_t>(batch.lanes) - 1);
  if (k_lo > k_hi) return {};
  return {static_cast<std::size_t>(k_lo), static_cast<std::size_t>(k_hi)};
}

void lanes_containing_into(const WindowSpec& spec, const SpmmBatch& batch,
                           Timestamp t, std::uint64_t* words) {
  const LaneSpan span = lane_span_containing(spec, batch, t);
  if (!span.empty()) mask_set_range(words, span.lo, span.hi);
}

std::uint64_t lanes_containing(const WindowSpec& spec, const SpmmBatch& batch,
                               Timestamp t) {
  assert(batch.lanes <= 64);
  std::uint64_t word = 0;
  lanes_containing_into(spec, batch, t, &word);
  return word;
}

}  // namespace pmpr
