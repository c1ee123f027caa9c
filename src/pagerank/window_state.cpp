#include "pagerank/window_state.hpp"

#include <algorithm>
#include <cassert>

namespace pmpr {

std::uint64_t lanes_containing(const WindowSpec& spec, const SpmmBatch& batch,
                               Timestamp t) {
  assert(batch.lanes <= kMaxSpmmLanes);
  const auto [wlo, whi] = spec.windows_containing(t);  // [wlo, whi)
  if (wlo >= whi) return 0;
  // Lane k holds window first_window + k*stride; find the k range
  // intersecting [wlo, whi). The range is contiguous in k.
  const auto first = static_cast<std::int64_t>(batch.first_window);
  const auto stride = static_cast<std::int64_t>(batch.window_stride);
  const auto lo_num = static_cast<std::int64_t>(wlo) - first;
  const auto hi_num = static_cast<std::int64_t>(whi) - 1 - first;
  if (hi_num < 0) return 0;
  const std::int64_t k_lo = lo_num <= 0 ? 0 : (lo_num + stride - 1) / stride;
  std::int64_t k_hi = hi_num / stride;
  k_hi = std::min<std::int64_t>(k_hi,
                                static_cast<std::int64_t>(batch.lanes) - 1);
  if (k_lo > k_hi) return 0;
  // Bits k_lo..k_hi: a run of k_hi - k_lo + 1 (1..64) ones.
  return ~std::uint64_t{0} >> (63 - (k_hi - k_lo)) << k_lo;
}

}  // namespace pmpr
