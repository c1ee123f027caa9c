// Bit-manipulation helpers shared by the lane-mask layers.
//
// A "lane mask" is one std::uint64_t, bit k naming lane k: an SpMM batch
// has at most 64 lanes (kMaxSpmmLanes in pagerank/window_state.hpp). ctz64
// is the single sanctioned spot that converts a mask word into a lane
// index.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace pmpr {

/// Index of the lowest set bit of `x` as std::size_t. Precondition: the
/// callers' loops guarantee x != 0 (countr_zero(0) would return 64, which
/// is never a valid in-word bit index).
[[nodiscard]] constexpr std::size_t ctz64(std::uint64_t x) {
  return static_cast<std::size_t>(std::countr_zero(x));
}

/// The mask holding only `lane` (< 64).
[[nodiscard]] constexpr std::uint64_t lane_bit(std::size_t lane) {
  return std::uint64_t{1} << lane;
}

/// The mask of lanes [0, n), n <= 64.
[[nodiscard]] constexpr std::uint64_t lanes_below(std::size_t n) {
  return n >= 64 ? ~std::uint64_t{0} : lane_bit(n) - 1;
}

[[nodiscard]] constexpr bool mask_test(std::uint64_t mask, std::size_t lane) {
  return (mask >> lane & 1) != 0;
}

/// Invokes `fn(lane)` for every set lane, ascending.
template <typename Fn>
constexpr void for_each_set_lane(std::uint64_t mask, Fn&& fn) {
  while (mask != 0) {
    fn(ctz64(mask));
    mask &= mask - 1;
  }
}

}  // namespace pmpr
