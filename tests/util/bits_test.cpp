// util/bits.hpp: the one-word lane-mask primitives underneath the SpMM
// batch kernels. These are all constexpr, so a good chunk of the contract
// is enforced at compile time via static_assert.
#include "util/bits.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace pmpr {
namespace {

TEST(Bits, Ctz64) {
  EXPECT_EQ(ctz64(1), 0u);
  EXPECT_EQ(ctz64(0b1000), 3u);
  EXPECT_EQ(ctz64(std::uint64_t{1} << 63), 63u);
  EXPECT_EQ(ctz64(~std::uint64_t{0}), 0u);
  static_assert(ctz64(std::uint64_t{1} << 17) == 17);
}

TEST(Bits, LaneBitAndMaskTest) {
  std::uint64_t mask = 0;
  for (const std::size_t lane :
       {std::size_t{0}, std::size_t{31}, std::size_t{32}, std::size_t{63}}) {
    EXPECT_FALSE(mask_test(mask, lane)) << lane;
    mask |= lane_bit(lane);
    EXPECT_TRUE(mask_test(mask, lane)) << lane;
  }
  EXPECT_EQ(mask, (std::uint64_t{1} << 0) | (std::uint64_t{1} << 31) |
                      (std::uint64_t{1} << 32) | (std::uint64_t{1} << 63));
  mask &= ~lane_bit(31);
  EXPECT_FALSE(mask_test(mask, 31));
  EXPECT_TRUE(mask_test(mask, 32));
  static_assert(lane_bit(63) == std::uint64_t{1} << 63);
}

TEST(Bits, ForEachSetLaneAscending) {
  const std::vector<std::size_t> lanes = {0, 1, 7, 8, 33, 62, 63};
  std::uint64_t mask = 0;
  for (const std::size_t lane : lanes) mask |= lane_bit(lane);
  std::vector<std::size_t> seen;
  for_each_set_lane(mask, [&](std::size_t k) { seen.push_back(k); });
  EXPECT_EQ(seen, lanes);
  std::size_t calls = 0;
  for_each_set_lane(std::uint64_t{0}, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

}  // namespace
}  // namespace pmpr
